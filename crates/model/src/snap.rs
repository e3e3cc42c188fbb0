//! Snapshot byte-format primitives (DESIGN.md §11).
//!
//! A hand-rolled, versioned, deterministic binary format for simulator
//! checkpoints. No external dependencies: little-endian integers,
//! length-prefixed sections, and a trailing CRC-32 (IEEE) over everything
//! before it. The layout is
//!
//! ```text
//! magic    8 bytes   b"RRSSNAP1"
//! version  u32 LE    SNAP_VERSION (currently 3; readers accept only it)
//! payload  ...       writer-defined: integers, length-prefixed byte
//!                    strings, and named length-prefixed sections
//! crc      u32 LE    CRC-32/IEEE of every byte above
//! ```
//!
//! The magic is a file-type tag, not a version marker — the version is
//! the u32 that follows it. Writers emit [`SNAP_VERSION`] and readers
//! accept exactly that version, so no decoder branches on the file's age
//! (DESIGN.md §11).
//!
//! The writer/reader pair here is deliberately dumb: it frames bytes and
//! checks integrity, and leaves meaning to the caller. Higher layers
//! (the engine's checkpoint module, each policy's `Snapshot` impl) encode
//! their state as a sequence of primitives; decoding mirrors the encode
//! order exactly, so the format is deterministic by construction — the
//! same state always produces the same bytes.

use std::fmt;

/// Magic prefix identifying a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"RRSSNAP1";

/// Current snapshot format version, the only one readers accept. Bump on
/// any layout change.
pub const SNAP_VERSION: u32 = 3;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) lookup table, built at
/// compile time so the implementation carries no runtime initialization.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A snapshot decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The format version is not one this reader understands.
    BadVersion(u32),
    /// The trailing CRC does not match the content.
    BadChecksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// The input ended before a field could be read.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A field decoded to a value the caller rejects (wrong policy name,
    /// impossible count, mismatched parameter, ...).
    Invalid(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads v{SNAP_VERSION} only)"
                )
            }
            SnapError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot corrupted: checksum mismatch (stored {stored:#010x}, \
                 computed {computed:#010x})"
            ),
            SnapError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializer for the snapshot format: magic + version up front, then
/// caller-driven primitives, sealed by [`SnapWriter::finish`] which
/// appends the CRC.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Start a snapshot: writes the magic and version header.
    pub fn new() -> Self {
        Self::with_frame(SNAP_MAGIC, SNAP_VERSION)
    }

    /// Start a framed file with a caller-chosen magic and version. The
    /// byte conventions (little-endian integers, length-prefixed byte
    /// strings and sections, trailing CRC-32) are shared with snapshots;
    /// only the 8-byte file-type tag and the version number differ. This
    /// is how sibling formats (the OPT solve cache's `RRSOPTC1`) reuse
    /// the wire format without masquerading as snapshots.
    pub fn with_frame(magic: &[u8; 8], version: u32) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        Self { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed (u64) byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a named, length-prefixed section produced by `fill`.
    ///
    /// Sections make decode errors attributable ("truncated while reading
    /// section `policy`") and let readers skip content they understand
    /// structurally but not semantically.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut SnapWriter)) {
        self.put_str(name);
        let mut inner = SnapWriter { buf: Vec::new() };
        fill(&mut inner);
        self.put_bytes(&inner.buf);
    }

    /// Seal the snapshot: append the CRC-32 of everything so far and
    /// return the complete byte string.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Deserializer mirroring [`SnapWriter`]. Construction verifies magic,
/// version, and CRC; the primitives then decode in the exact order the
/// writer emitted them.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Open a complete snapshot byte string: checks magic, version, and
    /// the trailing CRC, then positions the cursor at the first payload
    /// byte. Accepts exactly [`SNAP_VERSION`].
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        Self::with_frame(bytes, SNAP_MAGIC, SNAP_VERSION)
    }

    /// Open a framed file written by [`SnapWriter::with_frame`]: checks
    /// the caller's magic, that the file carries exactly `version`, and the
    /// trailing CRC, then positions the cursor at the first payload byte.
    pub fn with_frame(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Self, SnapError> {
        if bytes.len() < magic.len() + 4 + 4 {
            // Too short even for an empty payload — but distinguish a bad
            // prefix from a truncated-but-recognizable one.
            if !bytes.starts_with(magic) && bytes.len() >= magic.len() {
                return Err(SnapError::BadMagic);
            }
            return Err(SnapError::Truncated { what: "header" });
        }
        if &bytes[..magic.len()] != magic {
            return Err(SnapError::BadMagic);
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[magic.len()..magic.len() + 4]);
        let found = u32::from_le_bytes(ver);
        if found != version {
            return Err(SnapError::BadVersion(found));
        }
        let body = &bytes[..bytes.len() - 4];
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&bytes[bytes.len() - 4..]);
        let stored = u32::from_le_bytes(crc_bytes);
        let computed = crc32(body);
        if stored != computed {
            return Err(SnapError::BadChecksum { stored, computed });
        }
        Ok(Self { buf: body, pos: magic.len() + 4 })
    }

    /// Open a reader over raw payload bytes (a section body already
    /// extracted from a checked snapshot) with no header or CRC.
    pub fn over(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated { what })?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated { what });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        let b = self.take(4, what)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<&'a [u8], SnapError> {
        let len = self.get_u64(what)?;
        let len = usize::try_from(len).map_err(|_| SnapError::Truncated { what })?;
        self.take(len, what)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<&'a str, SnapError> {
        let bytes = self.get_bytes(what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| SnapError::Invalid(format!("{what}: not valid UTF-8")))
    }

    /// Read a named section: verifies the stored name matches `name` and
    /// returns a reader scoped to the section body.
    pub fn section(&mut self, name: &'static str) -> Result<SnapReader<'a>, SnapError> {
        let stored = self.get_str("section name")?;
        if stored != name {
            return Err(SnapError::Invalid(format!("expected section '{name}', found '{stored}'")));
        }
        let body = self.get_bytes("section body")?;
        Ok(SnapReader::over(body))
    }

    /// True when every byte has been consumed. Decoders should check this
    /// at the end of each section to catch trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The bytes not yet consumed, without advancing the cursor. Lets a
    /// caller split a payload: decode a prefix now, hand the remainder to
    /// another decoder later (via [`SnapReader::over`]).
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos.min(self.buf.len())..]
    }

    /// Error unless the reader is fully consumed.
    pub fn expect_end(&self, what: &'static str) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Invalid(format!("{what}: {} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_primitives() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_str("d").unwrap(), "hello");
        assert_eq!(r.get_bytes("e").unwrap(), &[1, 2, 3]);
        r.expect_end("payload").unwrap();
    }

    #[test]
    fn sections_round_trip_and_check_names() {
        let mut w = SnapWriter::new();
        w.section("engine", |s| {
            s.put_u64(42);
        });
        w.section("policy", |s| {
            s.put_str("dlru-edf");
        });
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        let mut eng = r.section("engine").unwrap();
        assert_eq!(eng.get_u64("x").unwrap(), 42);
        eng.expect_end("engine").unwrap();
        let mut pol = r.section("policy").unwrap();
        assert_eq!(pol.get_str("name").unwrap(), "dlru-edf");

        let mut r2 = SnapReader::new(&bytes).unwrap();
        let e = r2.section("policy").unwrap_err();
        assert!(matches!(e, SnapError::Invalid(_)));
    }

    #[test]
    fn custom_frames_round_trip_and_stay_distinct() {
        let mut w = SnapWriter::with_frame(b"RRSTEST1", 7);
        w.put_u64(99);
        let bytes = w.finish();
        // The matching frame reads back.
        let mut r = SnapReader::with_frame(&bytes, b"RRSTEST1", 7).unwrap();
        assert_eq!(r.get_u64("x").unwrap(), 99);
        r.expect_end("payload").unwrap();
        // A snapshot reader must not accept a foreign frame, nor the
        // reverse — magic is a file-type tag, not decoration.
        assert_eq!(SnapReader::new(&bytes).unwrap_err(), SnapError::BadMagic);
        let snap = SnapWriter::new().finish();
        assert_eq!(SnapReader::with_frame(&snap, b"RRSTEST1", 7).unwrap_err(), SnapError::BadMagic);
        // Any other version is rejected by the frame check.
        let w = SnapWriter::with_frame(b"RRSTEST1", 8);
        let bytes = w.finish();
        assert_eq!(
            SnapReader::with_frame(&bytes, b"RRSTEST1", 7).unwrap_err(),
            SnapError::BadVersion(8)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let mut bytes = w.finish();
        bytes[0] = b'X';
        assert_eq!(SnapReader::new(&bytes).unwrap_err(), SnapError::BadMagic);
    }

    #[test]
    fn only_the_current_version_is_read() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let mut bytes = w.finish();
        assert!(SnapReader::new(&bytes).is_ok());
        // Patch the version field and re-seal with a fresh CRC so only the
        // version check can fire: the retired v1 and v2, anything older,
        // the next version and an unknown future are all rejected alike.
        let len = bytes.len();
        for v in [0, 1, 2, SNAP_VERSION + 1, 99] {
            bytes[8..12].copy_from_slice(&v.to_le_bytes());
            let crc = crc32(&bytes[..len - 4]);
            bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
            let e = SnapReader::new(&bytes).unwrap_err();
            assert_eq!(e, SnapError::BadVersion(v));
            assert!(e.to_string().contains(&format!("reads v{SNAP_VERSION} only")), "{e}");
        }
    }

    #[test]
    fn bit_flip_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(12345);
        w.put_str("payload");
        let bytes = w.finish();
        for i in 12..bytes.len() - 4 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let e = SnapReader::new(&corrupt).unwrap_err();
            assert!(matches!(e, SnapError::BadChecksum { .. }), "flip at byte {i} gave {e:?}");
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(12345);
        let bytes = w.finish();
        for len in 0..bytes.len() {
            let e = SnapReader::new(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    e,
                    SnapError::Truncated { .. }
                        | SnapError::BadChecksum { .. }
                        | SnapError::BadMagic
                ),
                "prefix of {len} bytes gave {e:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix for a byte string
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.get_bytes("blob").unwrap_err(), SnapError::Truncated { .. }));
    }
}
