//! Length-prefixed binary serialization for hot-path wire and storage records.
//!
//! The workspace's `serde` is an offline no-op shim, so — like the JSON
//! encoding of [`crate::PointRecord::to_json_line`] — the binary codec is
//! hand-rolled behind a minimal `StorageSerde`-style trait pair:
//! [`WireSerde::serialize_into`] writes a value to any [`Write`] sink,
//! [`WireSerde::deserialize_from`] reads it back from any [`Read`] source.  The encoding is fixed-order and
//! fixed-width where possible:
//!
//! * integers are little-endian (`u8` raw, `u32`/`u64`/`i64` via
//!   `to_le_bytes`),
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so every value —
//!   including NaN payloads, infinities and signed zero — round-trips
//!   bit-exactly,
//! * `bool` is one byte (`0`/`1`; anything else is corruption),
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * sequences are a `u32` element count followed by the elements,
//! * options are a one-byte discriminant (`0` absent, `1` present).
//!
//! Length headers are validated against hard caps ([`MAX_TEXT_LEN`],
//! [`MAX_SEQ_LEN`]) before any allocation, so a corrupt or hostile header
//! cannot ask the decoder to reserve gigabytes.
//!
//! [`PointRecord`] implements the trait by writing its fields in declaration
//! order; the serving layer builds its request/reply framing on the same
//! primitives (see `crates/serve`), and the segment shard files
//! ([`crate::SegmentStore`]) persist records in exactly this payload encoding.

use std::io::{Read, Write};

use crate::store::PointRecord;

/// Longest string the decoder will allocate for (16 MiB).
///
/// The longest legitimate strings on the wire are Prometheus expositions and
/// `distribution` fields — well under a megabyte.  A length header above this
/// cap is corruption, not data.
pub const MAX_TEXT_LEN: usize = 16 << 20;

/// Most elements a single decoded sequence may claim (1 << 20).
///
/// Batched ops carry at most a few thousand entries; a count above this cap
/// is corruption, not data.
pub const MAX_SEQ_LEN: usize = 1 << 20;

/// Errors of the binary codec.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed (includes truncation: a reader
    /// that ends mid-value surfaces as an `UnexpectedEof` I/O error).
    Io(std::io::Error),
    /// The bytes were read but do not decode: a bad discriminant, an
    /// over-cap length header, invalid UTF-8, or trailing garbage.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "binary codec I/O error: {err}"),
            WireError::Corrupt(message) => write!(f, "corrupt binary value: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err)
    }
}

/// Binary serialization seam: a value that can write itself to any [`Write`]
/// sink and read itself back from any [`Read`] source.
///
/// The pair mirrors papyrus's `StorageSerde` — one trait, two directions, no
/// intermediate tree — so the same impl serves the wire protocol (writing
/// into a connection's reused scratch buffer) and the segment store files.
pub trait WireSerde: Sized {
    /// Appends the value's binary encoding to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the sink fails; encoding itself cannot
    /// fail.
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError>;

    /// Reads one value's binary encoding from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the source fails or ends mid-value,
    /// and [`WireError::Corrupt`] when the bytes do not decode.
    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError>;
}

impl WireSerde for u8 {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        out.write_all(&[*self])?;
        Ok(())
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut buf = [0u8; 1];
        reader.read_exact(&mut buf)?;
        Ok(buf[0])
    }
}

impl WireSerde for u32 {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        out.write_all(&self.to_le_bytes())?;
        Ok(())
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut buf = [0u8; 4];
        reader.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }
}

impl WireSerde for u64 {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        out.write_all(&self.to_le_bytes())?;
        Ok(())
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut buf = [0u8; 8];
        reader.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
}

impl WireSerde for i64 {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        out.write_all(&self.to_le_bytes())?;
        Ok(())
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut buf = [0u8; 8];
        reader.read_exact(&mut buf)?;
        Ok(i64::from_le_bytes(buf))
    }
}

impl WireSerde for f64 {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        // The bit pattern, not a decimal rendering: round-trips NaN payloads,
        // infinities and signed zero exactly, with no parse on the way back.
        self.to_bits().serialize_into(out)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::deserialize_from(reader)?))
    }
}

impl WireSerde for bool {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        u8::from(*self).serialize_into(out)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::deserialize_from(reader)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!("bad bool byte {other:#04x}"))),
        }
    }
}

impl WireSerde for String {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_str(out, self)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let len = read_len(reader, MAX_TEXT_LEN, "string")?;
        let mut bytes = vec![0u8; len];
        reader.read_exact(&mut bytes)?;
        String::from_utf8(bytes).map_err(|err| WireError::Corrupt(format!("bad UTF-8: {err}")))
    }
}

impl<T: WireSerde> WireSerde for Option<T> {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        match self {
            None => 0u8.serialize_into(out),
            Some(value) => {
                1u8.serialize_into(out)?;
                value.serialize_into(out)
            }
        }
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::deserialize_from(reader)? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize_from(reader)?)),
            other => Err(WireError::Corrupt(format!("bad option byte {other:#04x}"))),
        }
    }
}

impl<T: WireSerde> WireSerde for Vec<T> {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_seq(out, self)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let count = read_len(reader, MAX_SEQ_LEN, "sequence")?;
        // Conservative reservation: elements are at least one byte each, so a
        // corrupt-but-under-cap count cannot reserve more than the cap.
        let mut items = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            items.push(T::deserialize_from(reader)?);
        }
        Ok(items)
    }
}

/// Writes a borrowed string — the allocation-free twin of the `String` impl,
/// for callers encoding `&str` fields without cloning.
///
/// # Errors
///
/// Returns [`WireError::Io`] when the sink fails and [`WireError::Corrupt`]
/// when the string exceeds [`MAX_TEXT_LEN`] (it could never be decoded).
pub fn write_str(out: &mut impl Write, text: &str) -> Result<(), WireError> {
    if text.len() > MAX_TEXT_LEN {
        return Err(WireError::Corrupt(format!(
            "string of {} bytes exceeds the {} byte cap",
            text.len(),
            MAX_TEXT_LEN
        )));
    }
    write_seq_len(out, text.len())?;
    out.write_all(text.as_bytes())?;
    Ok(())
}

/// Writes a borrowed slice — the allocation-free twin of the `Vec<T>` impl,
/// for callers encoding `&[T]` fields without cloning.
///
/// # Errors
///
/// As [`write_seq_len`] and the elements' own encoding.
pub fn write_seq<T: WireSerde>(out: &mut impl Write, items: &[T]) -> Result<(), WireError> {
    write_seq_len(out, items.len())?;
    for item in items {
        item.serialize_into(out)?;
    }
    Ok(())
}

/// Writes a `usize` length/count header as `u32` little-endian.
///
/// # Errors
///
/// Returns [`WireError::Corrupt`] when the value does not fit in `u32` and
/// [`WireError::Io`] when the sink fails.
pub fn write_seq_len(out: &mut impl Write, len: usize) -> Result<(), WireError> {
    let len = u32::try_from(len)
        .map_err(|_| WireError::Corrupt(format!("length {len} does not fit the u32 header")))?;
    len.serialize_into(out)
}

/// Reads a `u32` length/count header, enforcing `cap` before any allocation.
///
/// # Errors
///
/// Returns [`WireError::Io`] when the source fails and [`WireError::Corrupt`]
/// when the header exceeds `cap`.
pub fn read_len(reader: &mut impl Read, cap: usize, what: &str) -> Result<usize, WireError> {
    let len = u32::deserialize_from(reader)? as usize;
    if len > cap {
        return Err(WireError::Corrupt(format!(
            "{what} length {len} exceeds the {cap} cap"
        )));
    }
    Ok(len)
}

impl WireSerde for PointRecord {
    fn serialize_into(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.key.serialize_into(out)?;
        write_str(out, &self.canonical)?;
        write_str(out, &self.kernel)?;
        write_str(out, &self.algorithm)?;
        write_str(out, &self.version)?;
        self.budget.serialize_into(out)?;
        self.ram_latency.serialize_into(out)?;
        write_str(out, &self.device)?;
        self.feasible.serialize_into(out)?;
        self.fits.serialize_into(out)?;
        self.registers_used.serialize_into(out)?;
        self.total_cycles.serialize_into(out)?;
        self.compute_cycles.serialize_into(out)?;
        self.memory_cycles.serialize_into(out)?;
        self.transfer_cycles.serialize_into(out)?;
        self.clock_period_ns.serialize_into(out)?;
        self.execution_time_us.serialize_into(out)?;
        self.slices.serialize_into(out)?;
        self.block_rams.serialize_into(out)?;
        write_str(out, &self.distribution)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        Ok(Self {
            key: u64::deserialize_from(reader)?,
            canonical: String::deserialize_from(reader)?,
            kernel: String::deserialize_from(reader)?,
            algorithm: String::deserialize_from(reader)?,
            version: String::deserialize_from(reader)?,
            budget: u64::deserialize_from(reader)?,
            ram_latency: u64::deserialize_from(reader)?,
            device: String::deserialize_from(reader)?,
            feasible: bool::deserialize_from(reader)?,
            fits: bool::deserialize_from(reader)?,
            registers_used: u64::deserialize_from(reader)?,
            total_cycles: u64::deserialize_from(reader)?,
            compute_cycles: u64::deserialize_from(reader)?,
            memory_cycles: u64::deserialize_from(reader)?,
            transfer_cycles: u64::deserialize_from(reader)?,
            clock_period_ns: f64::deserialize_from(reader)?,
            execution_time_us: f64::deserialize_from(reader)?,
            slices: u64::deserialize_from(reader)?,
            block_rams: u64::deserialize_from(reader)?,
            distribution: String::deserialize_from(reader)?,
        })
    }
}

/// Encodes one value to a fresh byte vector — convenience for tests and
/// one-shot callers; hot paths serialize into a reused buffer instead.
///
/// # Errors
///
/// Propagates [`WireError::Corrupt`] from over-cap strings; writing to a
/// `Vec` cannot fail.
pub fn to_bytes<T: WireSerde>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    value.serialize_into(&mut out)?;
    Ok(out)
}

/// Decodes one value from a byte slice, requiring every byte to be consumed.
///
/// # Errors
///
/// Returns [`WireError::Io`] on truncation, [`WireError::Corrupt`] on bad
/// bytes or trailing garbage.
pub fn from_bytes<T: WireSerde>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::deserialize_from(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after the value",
            bytes.len()
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> PointRecord {
        PointRecord {
            key: 0x1234_5678_9abc_def0,
            canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: 32,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: false,
            registers_used: 32,
            total_cycles: 123_456,
            compute_cycles: 100_000,
            memory_cycles: 20_000,
            transfer_cycles: 3_456,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:30 b:1 \"c\":1".to_owned(),
        }
    }

    fn round_trip<T: WireSerde + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value).expect("encodes");
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_round_trip() {
        for value in [0u8, 1, 0x7f, 0xff] {
            round_trip(&value);
        }
        for value in [0u32, 1, u32::MAX] {
            round_trip(&value);
        }
        for value in [0u64, 1, u64::MAX] {
            round_trip(&value);
        }
        for value in [i64::MIN, -1, 0, i64::MAX] {
            round_trip(&value);
        }
        round_trip(&true);
        round_trip(&false);
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for value in [
            0.0f64,
            -0.0,
            1.0,
            -1.5,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_cafe), // NaN with a payload
            1e-308,
            1e308,
        ] {
            let bytes = to_bytes(&value).unwrap();
            let back: f64 = from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), value.to_bits(), "{value}");
        }
    }

    #[test]
    fn nasty_strings_round_trip() {
        for text in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{0}nul",
            "unicode: ünïcødé — 日本語 🚀",
            "\u{1}\u{2}\u{3}control soup\u{1f}",
            "a:16 \"b\":1",
        ] {
            round_trip(&text.to_owned());
        }
        // A long string well past any inline buffer.
        round_trip(&"x".repeat(100_000));
    }

    #[test]
    fn point_record_round_trips() {
        round_trip(&sample_record());

        // Extreme numeric fields, including a payload-carrying NaN.
        let mut extreme = sample_record();
        extreme.key = u64::MAX;
        extreme.budget = u64::MAX;
        extreme.total_cycles = 0;
        extreme.clock_period_ns = f64::from_bits(0x7ff8_0000_0000_0001);
        extreme.execution_time_us = f64::NEG_INFINITY;
        extreme.distribution = String::new();
        let bytes = to_bytes(&extreme).unwrap();
        let back: PointRecord = from_bytes(&bytes).unwrap();
        assert_eq!(back.key, extreme.key);
        assert_eq!(
            back.clock_period_ns.to_bits(),
            extreme.clock_period_ns.to_bits()
        );
        assert_eq!(
            back.execution_time_us.to_bits(),
            extreme.execution_time_us.to_bits()
        );
    }

    #[test]
    fn vectors_of_records_round_trip() {
        let records = vec![sample_record(), sample_record()];
        round_trip(&records);
        round_trip(&vec![Some(sample_record()), None]);
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let bytes = to_bytes(&sample_record()).unwrap();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            match from_bytes::<PointRecord>(&bytes[..cut]) {
                Err(WireError::Io(err)) => {
                    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
                }
                other => panic!("cut {cut}: expected truncation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected_before_allocation() {
        // A string length header claiming 4 GiB.
        let mut bytes = Vec::new();
        u32::MAX.serialize_into(&mut bytes).unwrap();
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(WireError::Corrupt(_))
        ));

        // A sequence count over the cap.
        let mut bytes = Vec::new();
        ((MAX_SEQ_LEN + 1) as u32)
            .serialize_into(&mut bytes)
            .unwrap();
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::Corrupt(_))
        ));

        // Invalid UTF-8 payload.
        let mut bytes = Vec::new();
        2u32.serialize_into(&mut bytes).unwrap();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(WireError::Corrupt(_))
        ));

        // Bad bool and option discriminants.
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9]),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&42u64).unwrap();
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u64>(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_beats_json_on_size_for_typical_records() {
        // Not a correctness property, but the point of the codec: the binary
        // encoding of a typical record is smaller than its JSON line.
        let record = sample_record();
        let binary = to_bytes(&record).unwrap();
        let json = record.to_json_line();
        assert!(
            binary.len() < json.len(),
            "binary {} >= json {}",
            binary.len(),
            json.len()
        );
    }
}
