//! The alternative layout: the PMEM filesystem's namespace, one file per
//! variable (§3: *"pMEMCPY stores the data structures in a directory and
//! creates a file for each variable. Whenever a '/' is used in the id of
//! the variable, a directory is created if it didn't already exist."*).

use crate::error::{PmemCpyError, Result};
use crate::layout::{fill, serialize, Layout, Located, PutRequest};
use pmem_sim::{Clock, Machine};
use pserial::Serializer;
use simfs::{EntryKind, SimFs};
use std::sync::Arc;

pub(crate) struct HierarchicalLayout {
    fs: Arc<SimFs>,
    root: String,
    serializer: &'static dyn Serializer,
    machine: Arc<Machine>,
    map_sync: bool,
}

impl HierarchicalLayout {
    pub(crate) fn new(
        fs: &Arc<SimFs>,
        root: &str,
        serializer: &'static dyn Serializer,
        map_sync: bool,
    ) -> Self {
        HierarchicalLayout {
            machine: Arc::clone(fs.device().machine()),
            fs: Arc::clone(fs),
            root: root.trim_end_matches('/').to_string(),
            serializer,
            map_sync,
        }
    }

    fn path_of(&self, key: &str) -> String {
        format!("{}/{}", self.root, key)
    }
}

impl Layout for HierarchicalLayout {
    fn serializer(&self) -> &'static dyn Serializer {
        self.serializer
    }

    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn store_many(&self, clock: &Clock, puts: &[PutRequest<'_>]) -> Result<()> {
        if puts.is_empty() {
            return Ok(());
        }
        let lens = serialize(self, clock, puts);
        let mappings = {
            let _span = (self.machine)
                .phase(clock, "put", "put.reserve")
                .arg("keys", puts.len() as u64);
            // Batch the namespace work: one mkdir_p per distinct parent
            // implied by '/' in the group's keys, then create + size + map
            // each file.
            let mut parents: Vec<&str> = puts
                .iter()
                .filter_map(|p| p.key.rfind('/').map(|pos| &p.key[..pos]))
                .collect();
            parents.sort_unstable();
            parents.dedup();
            for parent in parents {
                self.fs
                    .mkdir_p(clock, &format!("{}/{}", self.root, parent))?;
            }
            let mut out = Vec::with_capacity(puts.len());
            for (put, &len) in puts.iter().zip(&lens) {
                let path = self.path_of(put.key);
                let fd = self.fs.create(clock, &path)?;
                self.fs.set_len(clock, fd, len)?;
                self.fs.close(clock, fd)?;
                out.push(self.fs.mmap_file(clock, &path, self.map_sync)?);
            }
            out
        };
        // Each file is its own record: filled, fenced, unmapped.
        for ((put, len), mapping) in puts.iter().zip(lens).zip(mappings) {
            fill(self, clock, put, &mapping, (0, len as usize), [&[], &[]])?;
            mapping.device().drain(clock);
            mapping.unmap(clock);
        }
        Ok(())
    }

    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>> {
        let mut out: Vec<Located> = Vec::with_capacity(keys.len());
        for key in keys {
            let located = (|| {
                let path = self.path_of(key);
                if !self.fs.exists(&path) {
                    return Err(PmemCpyError::NotFound(key.to_string()));
                }
                let len = self.fs.file_size(&path)? as usize;
                let mapping = self.fs.mmap_file(clock, &path, self.map_sync)?;
                Ok(Located::Mapped {
                    mapping,
                    offset: 0,
                    len,
                    header: None,
                    unmap_after_load: true,
                })
            })();
            match located {
                Ok(loc) => out.push(loc),
                Err(e) => {
                    // A mid-batch failure must not leak the per-key mappings
                    // already established for earlier keys.
                    for loc in &out {
                        loc.release(clock);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn exists(&self, _clock: &Clock, key: &str) -> bool {
        self.fs.exists(&self.path_of(key))
    }

    fn remove(&self, clock: &Clock, key: &str) -> Result<bool> {
        let path = self.path_of(key);
        if !self.fs.exists(&path) {
            return Ok(false);
        }
        self.fs.unlink(clock, &path)?;
        Ok(true)
    }

    fn keys(&self, _clock: &Clock) -> Vec<String> {
        // Depth-first walk of the root directory.
        let mut out = vec![];
        let mut stack = vec![String::new()];
        while let Some(prefix) = stack.pop() {
            let dir = if prefix.is_empty() {
                self.root.clone()
            } else {
                format!("{}/{}", self.root, prefix)
            };
            let Ok(entries) = self.fs.list_dir(&dir) else {
                continue;
            };
            for (name, kind) in entries {
                let key = if prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{prefix}/{name}")
                };
                match kind {
                    EntryKind::Dir => stack.push(key),
                    EntryKind::File => out.push(key),
                }
            }
        }
        out
    }
}
