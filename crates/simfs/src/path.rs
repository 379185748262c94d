//! Unix-style path handling for the simulated VFS.

use crate::error::{FsError, Result};

/// Normalize a path into its component list. Absolute and relative paths are
/// both resolved from the root (the VFS has no notion of a working
/// directory). `.` components are dropped; `..` and empty components are
/// rejected to keep the namespace simple and predictable.
pub(crate) fn components(path: &str) -> Result<Vec<String>> {
    if path.is_empty() {
        return Err(FsError::InvalidPath(path.into()));
    }
    let mut out = vec![];
    for comp in path.split('/') {
        match comp {
            "" | "." => {} // leading slash, duplicate slashes, self-refs
            ".." => return Err(FsError::InvalidPath(path.into())),
            c => out.push(c.to_string()),
        }
    }
    Ok(out)
}

/// Split into (parent components, file name).
pub(crate) fn split_parent(path: &str) -> Result<(Vec<String>, String)> {
    let mut comps = components(path)?;
    let name = comps
        .pop()
        .ok_or_else(|| FsError::InvalidPath(path.into()))?;
    Ok((comps, name))
}

/// Join components back into a canonical absolute path.
pub(crate) fn join(comps: &[String]) -> String {
    if comps.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", comps.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_slashes_and_dots() {
        assert_eq!(components("/a//b/./c").unwrap(), ["a", "b", "c"]);
        assert_eq!(components("a/b").unwrap(), ["a", "b"]);
        assert_eq!(components("/").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn rejects_empty_and_dotdot() {
        assert!(components("").is_err());
        assert!(components("/a/../b").is_err());
    }

    #[test]
    fn split_parent_separates_name() {
        let (parent, name) = split_parent("/data/vars/T#dims").unwrap();
        assert_eq!(parent, ["data", "vars"]);
        assert_eq!(name, "T#dims");
        assert!(split_parent("/").is_err());
    }

    #[test]
    fn join_round_trips() {
        let comps = components("/x/y/z").unwrap();
        assert_eq!(join(&comps), "/x/y/z");
        assert_eq!(join(&[]), "/");
    }
}
