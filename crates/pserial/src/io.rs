//! Byte-stream abstractions that let serializers target PMEM directly.
//!
//! The paper's key write-path optimization is serializing *into* the mapped
//! PMEM region rather than into a DRAM staging buffer. [`WriteSink`] is the
//! seam that makes this possible: the core library implements it over a DAX
//! mapping (every `put` is a store to PMEM), while tests and the baselines
//! implement it over plain `Vec<u8>` staging buffers. [`ReadSource`] is the
//! mirror for deserializing straight out of PMEM into the user's buffers.

use crate::error::{Result, SerialError};

/// An append-only byte destination.
pub trait WriteSink {
    /// Append `bytes` at the current position. Fixed-capacity sinks return
    /// [`SerialError::ShortBuffer`] on overflow instead of panicking, so a
    /// bad reservation surfaces as an error the caller can handle.
    fn put(&mut self, bytes: &[u8]) -> Result<()>;
    /// Append `payload` and the `tail` that follows it — a record's
    /// trailer. A sink that stores through media operations makes the two
    /// one store; by default they are two [`WriteSink::put`]s.
    fn put_with_tail(&mut self, payload: &[u8], tail: &[u8]) -> Result<()> {
        self.put(payload)?;
        self.put(tail)
    }
    /// Bytes written so far.
    fn position(&self) -> u64;
}

impl WriteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn position(&self) -> u64 {
        self.len() as u64
    }
}

/// A sequential byte source.
pub trait ReadSource {
    /// Fill `dst` from the current position; errors on underrun.
    fn get(&mut self, dst: &mut [u8]) -> Result<()>;
    /// Advance without copying (e.g. to skip a payload).
    fn skip(&mut self, n: u64) -> Result<()>;
    /// Bytes consumed so far.
    fn position(&self) -> u64;
}

/// A source over a byte slice.
#[derive(Debug)]
pub struct SliceSource<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SliceSource { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl ReadSource for SliceSource<'_> {
    fn get(&mut self, dst: &mut [u8]) -> Result<()> {
        if self.pos + dst.len() > self.buf.len() {
            return Err(SerialError::Corrupt(format!(
                "underrun: need {} at {}, have {}",
                dst.len(),
                self.pos,
                self.buf.len()
            )));
        }
        dst.copy_from_slice(&self.buf[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
        Ok(())
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        if self.pos as u64 + n > self.buf.len() as u64 {
            return Err(SerialError::Corrupt("skip past end".into()));
        }
        self.pos += n as usize;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.pos as u64
    }
}

// ---- little-endian helpers shared by the formats ----

pub fn put_u8(sink: &mut dyn WriteSink, v: u8) -> Result<()> {
    sink.put(&[v])
}

pub fn put_u32(sink: &mut dyn WriteSink, v: u32) -> Result<()> {
    sink.put(&v.to_le_bytes())
}

pub fn put_u64(sink: &mut dyn WriteSink, v: u64) -> Result<()> {
    sink.put(&v.to_le_bytes())
}

pub(crate) fn put_f64(sink: &mut dyn WriteSink, v: f64) -> Result<()> {
    sink.put(&v.to_le_bytes())
}

pub fn put_str(sink: &mut dyn WriteSink, s: &str) -> Result<()> {
    put_u32(sink, s.len() as u32)?;
    sink.put(s.as_bytes())
}

pub fn get_u8(src: &mut dyn ReadSource) -> Result<u8> {
    let mut b = [0u8; 1];
    src.get(&mut b)?;
    Ok(b[0])
}

pub fn get_u32(src: &mut dyn ReadSource) -> Result<u32> {
    let mut b = [0u8; 4];
    src.get(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub fn get_u64(src: &mut dyn ReadSource) -> Result<u64> {
    let mut b = [0u8; 8];
    src.get(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn get_f64(src: &mut dyn ReadSource) -> Result<f64> {
    let mut b = [0u8; 8];
    src.get(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

pub fn get_str(src: &mut dyn ReadSource) -> Result<String> {
    let len = get_u32(src)? as usize;
    if len > 1 << 20 {
        return Err(SerialError::Corrupt(format!(
            "implausible string length {len}"
        )));
    }
    let mut buf = vec![0u8; len];
    src.get(&mut buf)?;
    String::from_utf8(buf).map_err(|e| SerialError::Corrupt(format!("bad utf8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_appends() {
        let mut v = Vec::new();
        put_u32(&mut v, 7).unwrap();
        put_str(&mut v, "hi").unwrap();
        assert_eq!(v.position(), 4 + 4 + 2);
    }

    #[test]
    fn source_round_trips_helpers() {
        let mut v = Vec::new();
        put_u8(&mut v, 9).unwrap();
        put_u32(&mut v, 1234).unwrap();
        put_u64(&mut v, u64::MAX).unwrap();
        put_f64(&mut v, -1.5).unwrap();
        put_str(&mut v, "name#dims").unwrap();
        let mut src = SliceSource::new(&v);
        assert_eq!(get_u8(&mut src).unwrap(), 9);
        assert_eq!(get_u32(&mut src).unwrap(), 1234);
        assert_eq!(get_u64(&mut src).unwrap(), u64::MAX);
        assert_eq!(get_f64(&mut src).unwrap(), -1.5);
        assert_eq!(get_str(&mut src).unwrap(), "name#dims");
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn source_underrun_is_an_error() {
        let v = vec![1u8, 2];
        let mut src = SliceSource::new(&v);
        assert!(get_u64(&mut src).is_err());
        assert!(src.skip(3).is_err());
        assert!(src.skip(2).is_ok());
    }
}
