//! ADIOS-style XML configuration (the separate config file Fig. 5 mentions).
//!
//! Real ADIOS 1.x reads an XML file naming the transport method and buffer
//! sizing. The evaluation only needs the POSIX/MPI method switch and the
//! buffer cap, so the parser accepts exactly that shape:
//!
//! ```xml
//! <adios-config>
//!   <method name="POSIX"/>
//!   <buffer size-MB="64"/>
//! </adios-config>
//! ```

#[cfg(test)]
use crate::pio::{PioError, Result};

/// Transport method (cost-equivalent in the simulation; both hit the DAX
/// mount, as they did on the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Method {
    Posix,
    #[cfg(test)]
    Mpi,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdiosConfig {
    pub method: Method,
    pub buffer_mb: u64,
}

impl Default for AdiosConfig {
    fn default() -> Self {
        AdiosConfig {
            method: Method::Posix,
            buffer_mb: 64,
        }
    }
}

impl AdiosConfig {
    /// Parse the minimal XML dialect shown in the module docs.
    #[cfg(test)]
    pub(crate) fn parse(xml: &str) -> Result<Self> {
        let mut cfg = AdiosConfig::default();
        if !xml.contains("<adios-config") {
            return Err(PioError::Format("missing <adios-config> root".into()));
        }
        if let Some(m) = attr_of(xml, "method", "name") {
            cfg.method = match m.to_ascii_uppercase().as_str() {
                "POSIX" => Method::Posix,
                "MPI" | "MPI_AGGREGATE" => Method::Mpi,
                other => return Err(PioError::Format(format!("unknown method {other:?}"))),
            };
        }
        if let Some(sz) = attr_of(xml, "buffer", "size-MB") {
            cfg.buffer_mb = sz
                .parse()
                .map_err(|_| PioError::Format(format!("bad buffer size {sz:?}")))?;
        }
        Ok(cfg)
    }
}

/// Extract `attr="..."` from the first `<tag .../>` element.
#[cfg(test)]
fn attr_of<'a>(xml: &'a str, tag: &str, attr: &str) -> Option<&'a str> {
    let open = format!("<{tag}");
    let start = xml.find(&open)? + open.len();
    let rest = &xml[start..];
    let end = rest.find('>')?;
    let element = &rest[..end];
    let pat = format!("{attr}=\"");
    let vstart = element.find(&pat)? + pat.len();
    let vrest = &element[vstart..];
    let vend = vrest.find('"')?;
    Some(&vrest[..vend])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_shape() {
        let cfg = AdiosConfig::parse(
            r#"<adios-config><method name="MPI"/><buffer size-MB="128"/></adios-config>"#,
        )
        .unwrap();
        assert_eq!(cfg.method, Method::Mpi);
        assert_eq!(cfg.buffer_mb, 128);
    }

    #[test]
    fn defaults_apply_when_elements_missing() {
        let cfg = AdiosConfig::parse("<adios-config></adios-config>").unwrap();
        assert_eq!(cfg, AdiosConfig::default());
    }

    #[test]
    fn rejects_garbage() {
        assert!(AdiosConfig::parse("not xml").is_err());
        assert!(AdiosConfig::parse(
            r#"<adios-config><method name="CARRIER-PIGEON"/></adios-config>"#
        )
        .is_err());
        assert!(
            AdiosConfig::parse(r#"<adios-config><buffer size-MB="lots"/></adios-config>"#).is_err()
        );
    }
}
