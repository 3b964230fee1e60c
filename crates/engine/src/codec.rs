//! Low-level binary codec for the store's files: little-endian section
//! framing plus a CRC-32 integrity check.
//!
//! Every file in the family — a store's manifest and shards, and each
//! journal record — is `header ‖ payload ‖ crc32(payload)`:
//!
//! ```text
//! magic   u32le   one per file kind, so no file parses as another
//! version u32le
//! length  u64le   payload byte length
//! payload [u8]    section data (see `cwelmax-store`'s `format` and
//!                 `journal` modules)
//! crc     u32le   CRC-32 (IEEE) over payload only
//! ```
//!
//! The CRC is computed over the payload (not the header) so header parsing
//! can bail out early with precise errors; magic/version/length corruption
//! is caught by the header checks, payload corruption by the CRC, and
//! structural corruption that survives both (a deliberate attack, not a
//! disk error) by the validating constructors downstream.

use crate::error::EngineError;
use bytes::{Buf, BufMut, BytesMut};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same
/// polynomial zlib/PNG use. Table-driven, one table built at first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame a payload under a file kind's magic and format version.
pub fn frame_tagged(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(payload.len() + 20);
    out.put_u32_le(magic);
    out.put_u32_le(version);
    out.put_u64_le(payload.len() as u64);
    out.put_slice(payload);
    out.put_u32_le(crc32(payload));
    out.to_vec()
}

/// Unframe: verify magic, version (within `supported`), length and CRC;
/// return the format version and the payload.
pub fn unframe_tagged(
    magic: u32,
    supported: std::ops::RangeInclusive<u32>,
    bytes: &[u8],
) -> Result<(u32, &[u8]), EngineError> {
    if bytes.len() < 20 {
        return Err(EngineError::Corrupt(format!(
            "store file too short: {} bytes",
            bytes.len()
        )));
    }
    let mut cur = bytes;
    let got = cur.get_u32_le();
    if got != magic {
        return Err(EngineError::Corrupt(format!(
            "bad magic {got:#010x} (expected {magic:#010x})"
        )));
    }
    let version = cur.get_u32_le();
    if !supported.contains(&version) {
        return Err(EngineError::UnsupportedVersion(version));
    }
    let len = cur.get_u64_le() as usize;
    // checked: a corrupted length near u64::MAX must produce an error, not
    // an overflow panic in debug builds
    if len.checked_add(20) != Some(bytes.len()) {
        return Err(EngineError::Corrupt(format!(
            "length mismatch: header says {len} payload bytes, file has {}",
            bytes.len().saturating_sub(20)
        )));
    }
    let payload = &bytes[16..16 + len];
    let mut tail = &bytes[16 + len..];
    let stored = tail.get_u32_le();
    let actual = crc32(payload);
    if stored != actual {
        return Err(EngineError::Corrupt(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok((version, payload))
}

/// Section writer: length-prefixed typed vectors, little-endian.
pub struct SectionWriter {
    buf: BytesMut,
}

impl Default for SectionWriter {
    fn default() -> Self {
        SectionWriter::new()
    }
}

impl SectionWriter {
    pub fn new() -> SectionWriter {
        SectionWriter {
            buf: BytesMut::new(),
        }
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.buf.put_u64_le(xs.len() as u64);
        for &x in xs {
            self.buf.put_u32_le(x);
        }
    }

    pub fn put_u64_slice(&mut self, xs: &[u64]) {
        self.buf.put_u64_le(xs.len() as u64);
        for &x in xs {
            self.buf.put_u64_le(x);
        }
    }

    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.buf.put_u64_le(xs.len() as u64);
        for &x in xs {
            self.buf.put_f64_le(x);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf.to_vec()
    }
}

/// Section reader mirroring [`SectionWriter`], with bounds checking.
pub struct SectionReader<'a> {
    buf: &'a [u8],
}

impl<'a> SectionReader<'a> {
    pub fn new(buf: &'a [u8]) -> SectionReader<'a> {
        SectionReader { buf }
    }

    fn need(&self, n: usize, what: &str) -> Result<(), EngineError> {
        if self.buf.remaining() < n {
            return Err(EngineError::Corrupt(format!(
                "truncated section: need {n} bytes for {what}, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    pub fn get_u64(&mut self, what: &str) -> Result<u64, EngineError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_f64(&mut self, what: &str) -> Result<f64, EngineError> {
        self.need(8, what)?;
        Ok(self.buf.get_f64_le())
    }

    fn get_len(&mut self, what: &str, elem_bytes: usize) -> Result<usize, EngineError> {
        let len = self.get_u64(what)? as usize;
        // reject lengths the remaining buffer cannot possibly hold before
        // allocating (a corrupted length must not OOM the process)
        if len
            .checked_mul(elem_bytes)
            .is_none_or(|b| b > self.buf.remaining())
        {
            return Err(EngineError::Corrupt(format!(
                "implausible {what} length {len}"
            )));
        }
        Ok(len)
    }

    pub fn get_u32_vec(&mut self, what: &str) -> Result<Vec<u32>, EngineError> {
        let len = self.get_len(what, 4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_u32_le());
        }
        Ok(out)
    }

    pub fn get_u64_vec(&mut self, what: &str) -> Result<Vec<u64>, EngineError> {
        let len = self.get_len(what, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_u64_le());
        }
        Ok(out)
    }

    pub fn get_f64_vec(&mut self, what: &str) -> Result<Vec<f64>, EngineError> {
        let len = self.get_len(what, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_f64_le());
        }
        Ok(out)
    }

    /// Assert the whole payload was consumed (catches version skew).
    pub fn expect_end(&self) -> Result<(), EngineError> {
        if self.buf.remaining() != 0 {
            return Err(EngineError::Corrupt(format!(
                "{} trailing bytes after last section",
                self.buf.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // standard test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn tagged_frames_are_magic_and_version_checked() {
        let framed = frame_tagged(0xDEAD_BEEF, 3, b"payload");
        assert_eq!(
            unframe_tagged(0xDEAD_BEEF, 1..=3, &framed).unwrap(),
            (3, &b"payload"[..])
        );
        // the wrong family magic is a Corrupt error, not a parse attempt
        assert!(matches!(
            unframe_tagged(0xFEED_FACE, 1..=3, &framed),
            Err(EngineError::Corrupt(_))
        ));
        // a version outside the caller's supported range is rejected
        assert!(matches!(
            unframe_tagged(0xDEAD_BEEF, 1..=2, &framed),
            Err(EngineError::UnsupportedVersion(3))
        ));
        // a frame never unframes under a foreign magic
        let foreign = frame_tagged(0xFEED_FACE, 3, b"payload");
        assert!(unframe_tagged(0xDEAD_BEEF, 1..=3, &foreign).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let payload: Vec<u8> = (0..200u8).collect();
        let framed = frame_tagged(0xDEAD_BEEF, 1, &payload);
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                unframe_tagged(0xDEAD_BEEF, 1..=1, &bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let framed = frame_tagged(0xDEAD_BEEF, 1, b"payload");
        for cut in 0..framed.len() {
            assert!(
                unframe_tagged(0xDEAD_BEEF, 1..=1, &framed[..cut]).is_err(),
                "truncation to {cut}"
            );
        }
    }

    #[test]
    fn sections_roundtrip() {
        let mut w = SectionWriter::new();
        w.put_u64(42);
        w.put_f64(-1.25);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u64_slice(&[u64::MAX, 0]);
        w.put_f64_slice(&[0.5]);
        let bytes = w.finish();
        let mut r = SectionReader::new(&bytes);
        assert_eq!(r.get_u64("a").unwrap(), 42);
        assert_eq!(r.get_f64("b").unwrap(), -1.25);
        assert_eq!(r.get_u32_vec("c").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_vec("d").unwrap(), vec![u64::MAX, 0]);
        assert_eq!(r.get_f64_vec("e").unwrap(), vec![0.5]);
        r.expect_end().unwrap();
    }

    #[test]
    fn implausible_length_is_rejected_without_allocation() {
        let mut w = SectionWriter::new();
        w.put_u64(u64::MAX); // poses as a vector length
        let bytes = w.finish();
        let mut r = SectionReader::new(&bytes);
        assert!(r.get_u32_vec("bogus").is_err());
    }
}
