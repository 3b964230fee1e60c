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
//!
//! ## The byte path
//!
//! Every byte a store writes or faults in passes through here, so the
//! codec keeps its per-byte work small without changing a byte it
//! produces:
//!
//! * [`crc32`] is slicing-by-16 (Kounavis & Berry, "A Systematic Approach
//!   to Building High Performance Software-Based CRC Generators", ISCC
//!   2005): sixteen 256-entry tables, 16 input bytes folded per step, a
//!   bytewise tail. Same polynomial, reflection, init and xor-out as the
//!   one-table loop, so every stored CRC is unchanged. It is safe,
//!   portable Rust — no `unsafe`, no PCLMUL or other intrinsics, no
//!   `cfg(target_feature)`, no runtime dispatch: the workspace bans
//!   `unsafe` outside its shims, and one implementation on every target
//!   is one implementation to test.
//! * A frame is written in one pass: [`SectionWriter::framed`] reserves
//!   the 16-byte header and the exact payload and CRC capacity up front,
//!   the sections append the payload in place, and
//!   [`SectionWriter::finish`] patches the length and appends the CRC.
//!   No payload is copied into a frame afterwards; [`frame_tagged`] is
//!   that writer over a ready payload.
//! * [`SectionReader`] decodes a typed vector with one bounds check per
//!   array, after the length's plausibility check and before any
//!   allocation.

use crate::error::EngineError;
use bytes::{Buf, BufMut};
use std::sync::OnceLock;

/// Frame header bytes: magic, version, payload length.
const HEADER_BYTES: usize = 16;

/// Frame trailer bytes: the payload CRC.
const CRC_BYTES: usize = 4;

/// The slicing-by-16 tables: `t[0]` is the classic one-byte table of the
/// reflected polynomial, and `t[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
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
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same
/// polynomial zlib/PNG use. Slicing-by-16 over 16-byte blocks, then a
/// bytewise tail; tables built once at first use.
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc_tables();
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = !0u32;
    for b in blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame a payload under a file kind's magic and format version.
pub fn frame_tagged(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = SectionWriter::framed(magic, version, payload.len());
    w.buf.put_slice(payload);
    w.finish()
}

/// Unframe: verify magic, version (within `supported`), length and CRC;
/// return the format version and the payload.
pub fn unframe_tagged(
    magic: u32,
    supported: std::ops::RangeInclusive<u32>,
    bytes: &[u8],
) -> Result<(u32, &[u8]), EngineError> {
    if bytes.len() < HEADER_BYTES + CRC_BYTES {
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
    if len.checked_add(HEADER_BYTES + CRC_BYTES) != Some(bytes.len()) {
        return Err(EngineError::Corrupt(format!(
            "length mismatch: header says {len} payload bytes, file has {}",
            bytes.len().saturating_sub(HEADER_BYTES + CRC_BYTES)
        )));
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + len];
    let mut tail = &bytes[HEADER_BYTES + len..];
    let stored = tail.get_u32_le();
    let actual = crc32(payload);
    if stored != actual {
        return Err(EngineError::Corrupt(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok((version, payload))
}

/// Section writer: length-prefixed typed vectors, little-endian. A bare
/// writer ([`SectionWriter::new`]) builds a payload; a framed one
/// ([`SectionWriter::framed`]) builds a whole frame around it in place.
pub struct SectionWriter {
    buf: Vec<u8>,
    /// Whether `buf` opens with a frame header that `finish` completes.
    framed: bool,
}

impl Default for SectionWriter {
    fn default() -> Self {
        SectionWriter::new()
    }
}

impl SectionWriter {
    /// A writer for a bare payload.
    pub fn new() -> SectionWriter {
        SectionWriter {
            buf: Vec::new(),
            framed: false,
        }
    }

    /// A writer for one frame under `magic`/`version` whose payload will
    /// be `payload_bytes` long: header, payload and CRC are reserved at
    /// exact capacity, so the frame is written without a reallocation
    /// or a copy. (The count sizes the allocation only; the length the
    /// header declares is always the payload actually written.)
    pub fn framed(magic: u32, version: u32, payload_bytes: usize) -> SectionWriter {
        let mut buf = Vec::with_capacity(HEADER_BYTES + payload_bytes + CRC_BYTES);
        buf.put_u32_le(magic);
        buf.put_u32_le(version);
        buf.put_u64_le(0); // patched by `finish`
        SectionWriter { buf, framed: true }
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_array(xs.iter(), |&x| x.to_le_bytes());
    }

    pub fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_u64_iter(xs.iter().copied());
    }

    /// A `u64` vector from an iterator — offsets rebased or widened on
    /// the way in, with no intermediate vector.
    pub fn put_u64_iter(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.put_array(xs, u64::to_le_bytes);
    }

    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_array(xs.iter(), |&x| x.to_le_bytes());
    }

    /// `count u64 ‖ count × N bytes`, encoded straight into the buffer.
    fn put_array<const N: usize, I: ExactSizeIterator>(
        &mut self,
        xs: I,
        to_le: impl Fn(I::Item) -> [u8; N],
    ) {
        let count = xs.len();
        self.buf.put_u64_le(count as u64);
        let start = self.buf.len();
        self.buf.resize(start + count * N, 0);
        let (slots, _) = self.buf[start..].as_chunks_mut::<N>();
        for (slot, x) in slots.iter_mut().zip(xs) {
            *slot = to_le(x);
        }
    }

    /// The written bytes: the payload of a bare writer, or the complete
    /// frame of a framed one (payload length patched into the header,
    /// payload CRC appended).
    pub fn finish(mut self) -> Vec<u8> {
        if self.framed {
            let len = (self.buf.len() - HEADER_BYTES) as u64;
            self.buf[8..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
            let crc = crc32(&self.buf[HEADER_BYTES..]);
            self.buf.put_u32_le(crc);
        }
        self.buf
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

    /// `count u64 ‖ count × N bytes`: the count is checked against the
    /// remaining buffer once, then the whole array decodes without a
    /// per-element bounds check.
    fn get_array<const N: usize, T>(
        &mut self,
        what: &str,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, EngineError> {
        let len = self.get_len(what, N)?;
        let (bytes, rest) = self.buf.split_at(len * N);
        self.buf = rest;
        let (elems, _) = bytes.as_chunks::<N>();
        Ok(elems.iter().map(|&e| from_le(e)).collect())
    }

    pub fn get_u32_vec(&mut self, what: &str) -> Result<Vec<u32>, EngineError> {
        self.get_array(what, u32::from_le_bytes)
    }

    pub fn get_u64_vec(&mut self, what: &str) -> Result<Vec<u64>, EngineError> {
        self.get_array(what, u64::from_le_bytes)
    }

    pub fn get_f64_vec(&mut self, what: &str) -> Result<Vec<f64>, EngineError> {
        self.get_array(what, f64::from_le_bytes)
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
    use proptest::prelude::*;

    /// The codec as it was before the byte path was rewritten, kept
    /// verbatim as the oracle the current code must reproduce byte for
    /// byte (and error for error).
    mod reference {
        use crate::error::EngineError;
        use bytes::{Buf, BufMut, BytesMut};

        /// CRC-32 straight from its definition: bit at a time, no table.
        pub fn crc32_bitwise(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }

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

        /// Section writer: length-prefixed typed vectors, little-endian.
        pub struct SectionWriter {
            buf: BytesMut,
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
    }

    /// splitmix64: a deterministic byte and value source for the oracles.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| splitmix(&mut state) as u8).collect()
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length_and_alignment() {
        let buf = random_bytes(300 + 16, 0xC0FFEE);
        for align in 0..16 {
            for len in 0..=300 {
                let data = &buf[align..align + len];
                let want = reference::crc32_bitwise(data);
                assert_eq!(crc32(data), want, "len {len}, alignment {align}");
                assert_eq!(reference::crc32(data), want, "len {len}, alignment {align}");
            }
        }
    }

    #[test]
    fn crc32_equals_both_oracles_on_a_mebibyte() {
        let buf = random_bytes(1 << 20, 39);
        let want = reference::crc32_bitwise(&buf);
        assert_eq!(crc32(&buf), want);
        assert_eq!(reference::crc32(&buf), want);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference::crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// One section of a random payload.
    #[derive(Debug, Clone)]
    enum Section {
        U64(u64),
        F64(f64),
        U32s(Vec<u32>),
        U64s(Vec<u64>),
        F64s(Vec<f64>),
    }

    /// Sections from `(kind, seed, len)` triples; vectors may be empty,
    /// floats are arbitrary bit patterns (NaNs included).
    fn sections(spec: &[(u8, u64, usize)]) -> Vec<Section> {
        spec.iter()
            .map(|&(kind, seed, len)| {
                let mut state = seed;
                let mut next = || splitmix(&mut state);
                match kind {
                    0 => Section::U64(next()),
                    1 => Section::F64(f64::from_bits(next())),
                    2 => Section::U32s((0..len).map(|_| next() as u32).collect()),
                    3 => Section::U64s((0..len).map(|_| next()).collect()),
                    _ => Section::F64s((0..len).map(|_| f64::from_bits(next())).collect()),
                }
            })
            .collect()
    }

    fn payload_bytes(secs: &[Section]) -> usize {
        secs.iter()
            .map(|s| match s {
                Section::U64(_) | Section::F64(_) => 8,
                Section::U32s(xs) => 8 + 4 * xs.len(),
                Section::U64s(xs) => 8 + 8 * xs.len(),
                Section::F64s(xs) => 8 + 8 * xs.len(),
            })
            .sum()
    }

    fn write_reference(secs: &[Section]) -> Vec<u8> {
        let mut w = reference::SectionWriter::new();
        for s in secs {
            match s {
                Section::U64(v) => w.put_u64(*v),
                Section::F64(v) => w.put_f64(*v),
                Section::U32s(xs) => w.put_u32_slice(xs),
                Section::U64s(xs) => w.put_u64_slice(xs),
                Section::F64s(xs) => w.put_f64_slice(xs),
            }
        }
        w.finish()
    }

    fn write_current(mut w: SectionWriter, secs: &[Section]) -> Vec<u8> {
        for s in secs {
            match s {
                Section::U64(v) => w.put_u64(*v),
                Section::F64(v) => w.put_f64(*v),
                Section::U32s(xs) => w.put_u32_slice(xs),
                Section::U64s(xs) => w.put_u64_iter(xs.iter().copied()),
                Section::F64s(xs) => w.put_f64_slice(xs),
            }
        }
        w.finish()
    }

    /// What a reader made of a payload read back under `secs`' schema:
    /// every value (floats by bits) up to and including the first error.
    macro_rules! transcript {
        ($reader:expr, $secs:expr) => {{
            let mut r = $reader;
            let mut out: Vec<String> = Vec::new();
            let mut push = |step: Result<String, EngineError>| match step {
                Ok(v) => {
                    out.push(v);
                    true
                }
                Err(e) => {
                    out.push(format!("error: {e:?}"));
                    false
                }
            };
            let bits = |xs: Vec<f64>| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut ok = true;
            for s in $secs {
                ok = match s {
                    Section::U64(_) => push(r.get_u64("a").map(|v| format!("{v}"))),
                    Section::F64(_) => push(r.get_f64("b").map(|v| format!("{}", v.to_bits()))),
                    Section::U32s(_) => push(r.get_u32_vec("c").map(|v| format!("{v:?}"))),
                    Section::U64s(_) => push(r.get_u64_vec("d").map(|v| format!("{v:?}"))),
                    Section::F64s(_) => push(r.get_f64_vec("e").map(|v| format!("{:?}", bits(v)))),
                };
                if !ok {
                    break;
                }
            }
            if ok {
                push(r.expect_end().map(|()| "end".to_string()));
            }
            out
        }};
    }

    fn section_strategy() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
        collection::vec((0u8..5, any::<u64>(), 0usize..24), 0..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_frames_equal_the_old_writer_and_frame(
            spec in section_strategy(),
            magic in any::<u32>(),
            version in any::<u32>()
        ) {
            let secs = sections(&spec);
            let old_payload = write_reference(&secs);
            let old_frame = reference::frame_tagged(magic, version, &old_payload);
            prop_assert_eq!(write_current(SectionWriter::new(), &secs), old_payload.clone());
            let framed = SectionWriter::framed(magic, version, payload_bytes(&secs));
            let one_pass = write_current(framed, &secs);
            prop_assert_eq!(one_pass.capacity(), one_pass.len());
            prop_assert_eq!(one_pass, old_frame.clone());
            prop_assert_eq!(frame_tagged(magic, version, &old_payload), old_frame);
        }

        #[test]
        fn bulk_reader_returns_what_the_per_element_reader_did(
            spec in section_strategy(),
            cut in any::<usize>(),
            poke in any::<usize>(),
            value in any::<u8>()
        ) {
            let secs = sections(&spec);
            let bytes = write_reference(&secs);
            // whole, truncated, and with one byte overwritten (a length
            // field among the candidates), plus trailing garbage
            let mut poked = bytes.clone();
            if !poked.is_empty() {
                let at = poke % poked.len();
                poked[at] = value;
            }
            let mut long = bytes.clone();
            long.push(value);
            let cut = cut % (bytes.len() + 1);
            for input in [&bytes[..], &bytes[..cut], &poked[..], &long[..]] {
                prop_assert_eq!(
                    transcript!(SectionReader::new(input), &secs),
                    transcript!(reference::SectionReader::new(input), &secs)
                );
            }
        }
    }

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
