//! The workspace's one codec: every value type's JSON and binary encodings,
//! and the field layer that builds records and wire messages out of them.
//!
//! The build is offline and depends on no serialisation crate, so the
//! codec is hand-rolled behind one trait pair, used for both storage and
//! the wire: [`Encode`] writes a value and [`Decode`] reads it back, each in
//! both codecs.  Structs made only of fields implement [`Fields`]
//! instead and get both traits for free: they list their fields once,
//! against a [`Writer`] and a [`Reader`].  The JSON pair ([`JsonWriter`] /
//! [`JsonReader`]) maps a field to an object member by key; the binary pair
//! ([`BinWriter`] / [`BinReader`]) maps it to the next value in declaration
//! order.  Both are generic (static dispatch), so each codec compiles to
//! straight-line code per message.
//!
//! [`PointRecord`](crate::PointRecord) is such a struct, so its JSON line,
//! its serve wire encodings and its segment file payload
//! ([`crate::SegmentStore`]) all come from its one [`Fields`] impl.  The
//! serve crate's requests and replies are built from the same layer.  The
//! telemetry values those replies carry ([`Span`], [`MetricsSnapshot`],
//! [`SeriesSample`], [`SnapshotDelta`]) get their encodings here too: the
//! orphan rule allows them only in the crate that owns the traits.
//!
//! The binary encoding is fixed-order and fixed-width where possible:
//!
//! * integers are little-endian (`u8` raw, `u64`/`i64` via `to_le_bytes`),
//! * `f64` travels as its IEEE-754 bit pattern, so every value — including
//!   NaN payloads, infinities and signed zero — round-trips bit-exactly,
//! * `bool` is one byte (`0`/`1`; anything else is corruption),
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * sequences are a `u32` element count followed by the elements,
//! * options are a one-byte discriminant (`0` absent, `1` present).
//!
//! Lengths are checked against hard caps ([`MAX_TEXT_LEN`],
//! [`MAX_SEQ_LEN`]) on both sides: the encoder refuses a value its decoder
//! would reject, the binary decoder checks a header before any allocation,
//! so a corrupt or hostile header cannot ask it to reserve gigabytes, and
//! the JSON decoder applies the same sequence cap, so both codecs accept
//! the same batches.

use std::fmt::Write as _;
use std::io::{Read, Write};

use srra_obs::{
    valid_metric_name, HistogramSnapshot, MetricsSnapshot, SeriesSample, SnapshotDelta, Span,
    LATENCY_BUCKETS,
};

use crate::json::{render_string, JsonValue};

/// Longest string the codec will encode or decode (16 MiB).
///
/// The longest legitimate strings on the wire are Prometheus expositions and
/// `distribution` fields — well under a megabyte.  A length header above this
/// cap is corruption, not data.
pub const MAX_TEXT_LEN: usize = 16 << 20;

/// Most elements a single sequence may hold (1 << 20).
///
/// Batched ops carry at most a few thousand entries; a count above this cap
/// is corruption, not data.
pub const MAX_SEQ_LEN: usize = 1 << 20;

/// Errors of the codec.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed (includes truncation: a reader
    /// that ends mid-value surfaces as an `UnexpectedEof` I/O error).
    Io(std::io::Error),
    /// The bytes were read but do not decode — a bad discriminant, an
    /// over-cap length header, invalid UTF-8, trailing garbage, a missing or
    /// mistyped JSON field — or a value is too long to encode.
    Corrupt(String),
}

impl WireError {
    /// The error's description, for the JSON codec's `String` errors.
    pub fn into_message(self) -> String {
        match self {
            WireError::Corrupt(message) => message,
            WireError::Io(err) => err.to_string(),
        }
    }
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

/// The leading part of a message: its binary tag byte, and the members a
/// JSON object opens with (`"op":…` for requests, `"ok":…` for replies).
pub trait Head: Copy {
    /// The binary tag byte.
    fn tag(self) -> u8;
    /// Writes the JSON head members.
    fn json(self, w: &mut JsonWriter<'_>);
}

/// A bare variant tag: binary only, nothing in JSON.
impl Head for u8 {
    fn tag(self) -> u8 {
        self
    }

    fn json(self, _: &mut JsonWriter<'_>) {}
}

/// Writes one message's fields in either codec.
pub trait Writer {
    /// Whether this writer speaks JSON (where [`field_if`](Self::field_if)
    /// may skip a field).
    const JSON: bool;

    /// Opens the message with its head.
    fn open(&mut self, head: impl Head) -> Result<(), WireError>;

    /// Writes one field: a JSON member under `key`, or the next binary value.
    fn field<T: Encode + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), WireError>;

    /// As [`field`](Self::field), except that JSON leaves the member out
    /// unless `json` holds.  Binary always writes the value.
    fn field_if<T: Encode + ?Sized>(
        &mut self,
        key: &str,
        value: &T,
        json: bool,
    ) -> Result<(), WireError> {
        if json || !Self::JSON {
            self.field(key, value)
        } else {
            Ok(())
        }
    }

    /// A field only JSON carries (a derived total); binary skips it.
    fn json_only<T: Encode + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), WireError> {
        if Self::JSON {
            self.field(key, value)
        } else {
            Ok(())
        }
    }
}

/// Reads one message's fields in either codec.
pub trait Reader {
    /// Reads one field: the JSON member `key` (required), or the next binary
    /// value.
    fn field<T: Decode>(&mut self, key: &str) -> Result<T, WireError>;

    /// As [`field`](Self::field), except that a missing JSON member yields
    /// `default()`.  Binary always reads the value.
    fn field_or<T: Decode>(
        &mut self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, WireError>;

    /// Reads a variant tag: the next binary byte, or in JSON the tag that
    /// `json` derives from the object's members.
    fn tag(&mut self, json: impl FnOnce(&JsonValue) -> u8) -> Result<u8, WireError>;
}

/// A value type's encoding in both codecs.
pub trait Encode {
    /// Appends the JSON encoding.
    fn render(&self, out: &mut String);

    /// Appends the binary encoding.
    fn write(&self, out: &mut impl Write) -> Result<(), WireError>;
}

/// A value type's decoding in both codecs.
pub trait Decode: Sized {
    /// What the JSON value must be, for error messages (`a string`, …).
    const KIND: &'static str;

    /// Decodes a JSON value.
    fn from_json(value: &JsonValue) -> Result<Self, String>;

    /// Reads the binary encoding.
    fn read(reader: &mut impl Read) -> Result<Self, WireError>;
}

/// A struct encoded as its field list: a JSON object, or its fields' binary
/// values back to back.
pub trait Fields: Sized {
    /// The struct's name in JSON error messages.
    const NAME: &'static str;

    /// Writes every field.
    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError>;

    /// Reads every field.
    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError>;
}

impl<T: Fields> Encode for T {
    fn render(&self, out: &mut String) {
        JsonWriter::object(out, |w| self.write_fields(w));
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.write_fields(&mut BinWriter(out))
    }
}

impl<T: Fields> Decode for T {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        T::read_fields(&mut JsonReader::new(value, T::NAME)).map_err(WireError::into_message)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        T::read_fields(&mut BinReader(reader))
    }
}

/// Writes a JSON object's members into a caller-owned buffer.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// Appends one JSON object to `out`, its members written by `body`.
    pub fn object(out: &'a mut String, body: impl FnOnce(&mut Self) -> Result<(), WireError>) {
        out.push('{');
        let mut w = Self { out, empty: true };
        // Rendering JSON into a `String` cannot fail.
        let rendered = body(&mut w);
        debug_assert!(rendered.is_ok());
        w.out.push('}');
    }

    /// Starts the member `key` (keys are plain identifiers: no escaping).
    pub fn member(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }
}

impl Writer for JsonWriter<'_> {
    const JSON: bool = true;

    fn open(&mut self, head: impl Head) -> Result<(), WireError> {
        head.json(self);
        Ok(())
    }

    fn field<T: Encode + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), WireError> {
        value.render(self.member(key));
        Ok(())
    }
}

/// Reads fields as the members of one JSON object.
pub struct JsonReader<'a> {
    value: &'a JsonValue,
    /// The message's name in error messages.
    what: &'a str,
}

impl<'a> JsonReader<'a> {
    /// A reader over the object `value`, named `what` in error messages.
    pub fn new(value: &'a JsonValue, what: &'a str) -> Self {
        Self { value, what }
    }
}

impl Reader for JsonReader<'_> {
    fn field<T: Decode>(&mut self, key: &str) -> Result<T, WireError> {
        let what = self.what;
        let value = self.value.get(key).ok_or_else(|| {
            WireError::Corrupt(format!("`{what}` needs {} `{key}` field", T::KIND))
        })?;
        T::from_json(value)
            .map_err(|err| WireError::Corrupt(format!("`{what}` field `{key}`: {err}")))
    }

    fn field_or<T: Decode>(
        &mut self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, WireError> {
        match self.value.get(key) {
            None => Ok(default()),
            Some(_) => self.field(key),
        }
    }

    fn tag(&mut self, json: impl FnOnce(&JsonValue) -> u8) -> Result<u8, WireError> {
        Ok(json(self.value))
    }
}

/// Writes fields as binary values in order.
pub struct BinWriter<'a, W>(pub &'a mut W);

impl<W: Write> Writer for BinWriter<'_, W> {
    const JSON: bool = false;

    fn open(&mut self, head: impl Head) -> Result<(), WireError> {
        head.tag().write(self.0)
    }

    fn field<T: Encode + ?Sized>(&mut self, _: &str, value: &T) -> Result<(), WireError> {
        value.write(self.0)
    }
}

/// Reads fields as binary values in order.
pub struct BinReader<'a, R>(pub &'a mut R);

impl<R: Read> Reader for BinReader<'_, R> {
    fn field<T: Decode>(&mut self, _: &str) -> Result<T, WireError> {
        T::read(self.0)
    }

    fn field_or<T: Decode>(&mut self, _: &str, _: impl FnOnce() -> T) -> Result<T, WireError> {
        T::read(self.0)
    }

    fn tag(&mut self, _: impl FnOnce(&JsonValue) -> u8) -> Result<u8, WireError> {
        u8::read(self.0)
    }
}

/// Numbers: their JSON text, little-endian bytes in binary.  `{:?}` is the
/// plain decimal for integers and the shortest text that parses back to the
/// same `f64`; an `f64`'s little-endian bytes are its IEEE-754 bit pattern.
macro_rules! numbers {
    ($($ty:ty: $kind:literal),+) => {$(
        impl Encode for $ty {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self:?}");
            }

            fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
                out.write_all(&self.to_le_bytes())?;
                Ok(())
            }
        }

        impl Decode for $ty {
            const KIND: &'static str = $kind;

            fn from_json(value: &JsonValue) -> Result<Self, String> {
                match value {
                    JsonValue::Number(raw) => raw.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| format!("expected {}", $kind))
            }

            fn read(reader: &mut impl Read) -> Result<Self, WireError> {
                let mut bytes = [0u8; std::mem::size_of::<$ty>()];
                reader.read_exact(&mut bytes)?;
                Ok(<$ty>::from_le_bytes(bytes))
            }
        }
    )+};
}

numbers!(u8: "a number", u64: "a number", i64: "an integer", f64: "a number");

impl Encode for bool {
    fn render(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        u8::from(*self).write(out)
    }
}

impl Decode for bool {
    const KIND: &'static str = "a boolean";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        value
            .as_bool()
            .ok_or_else(|| format!("expected {}", Self::KIND))
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::read(reader)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!("bad bool byte {other:#04x}"))),
        }
    }
}

impl Encode for str {
    fn render(&self, out: &mut String) {
        render_string(out, self);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_len(out, self.len(), MAX_TEXT_LEN, "string")?;
        out.write_all(self.as_bytes())?;
        Ok(())
    }
}

impl Encode for String {
    fn render(&self, out: &mut String) {
        self.as_str().render(out);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.as_str().write(out)
    }
}

impl Decode for String {
    const KIND: &'static str = "a string";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("expected {}", Self::KIND))
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let len = read_len(reader, MAX_TEXT_LEN, "string")?;
        let mut bytes = vec![0u8; len];
        reader.read_exact(&mut bytes)?;
        String::from_utf8(bytes).map_err(|err| WireError::Corrupt(format!("bad UTF-8: {err}")))
    }
}

/// `null` in JSON; a one-byte presence flag in binary.
impl<T: Encode> Encode for Option<T> {
    fn render(&self, out: &mut String) {
        match self {
            Some(value) => value.render(out),
            None => out.push_str("null"),
        }
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.is_some().write(out)?;
        self.as_ref().map_or(Ok(()), |value| value.write(out))
    }
}

impl<T: Decode> Decode for Option<T> {
    const KIND: &'static str = T::KIND;

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::read(reader)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(reader)?)),
            other => Err(WireError::Corrupt(format!("bad option byte {other:#04x}"))),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn render(&self, out: &mut String) {
        out.push('[');
        for (index, item) in self.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            item.render(out);
        }
        out.push(']');
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_len(out, self.len(), MAX_SEQ_LEN, "sequence")?;
        self.iter().try_for_each(|item| item.write(out))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn render(&self, out: &mut String) {
        self.as_slice().render(out);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.as_slice().write(out)
    }
}

impl<T: Decode> Decode for Vec<T> {
    const KIND: &'static str = "an array";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let items = value
            .as_array()
            .ok_or_else(|| format!("expected {}", Self::KIND))?;
        check_len(items.len(), MAX_SEQ_LEN, "sequence")?;
        items
            .iter()
            .enumerate()
            .map(|(index, item)| T::from_json(item).map_err(|err| format!("entry {index}: {err}")))
            .collect()
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let count = read_len(reader, MAX_SEQ_LEN, "sequence")?;
        // Elements are at least one byte each, so a corrupt-but-under-cap
        // count cannot reserve more than the cap.
        let mut items = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            items.push(T::read(reader)?);
        }
        Ok(items)
    }
}

/// Named values (span annotations, counters, gauges): a JSON object keyed
/// by name, a sequence of name/value pairs in binary.
impl<T: Encode> Encode for Vec<(String, T)> {
    fn render(&self, out: &mut String) {
        render_named(out, self.iter().map(|(name, value)| (name.as_str(), value)));
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_len(out, self.len(), MAX_SEQ_LEN, "named values")?;
        for (name, value) in self {
            name.write(out)?;
            value.write(out)?;
        }
        Ok(())
    }
}

impl<T: Decode> Decode for Vec<(String, T)> {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(entries) = value else {
            return Err(format!("expected {}", Self::KIND));
        };
        check_len(entries.len(), MAX_SEQ_LEN, "named values")?;
        entries
            .iter()
            .map(|(name, entry)| {
                let value = T::from_json(entry).map_err(|err| format!("`{name}`: {err}"))?;
                Ok((name.clone(), value))
            })
            .collect()
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let count = read_len(reader, MAX_SEQ_LEN, "named values")?;
        let mut pairs = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            pairs.push((String::read(reader)?, T::read(reader)?));
        }
        Ok(pairs)
    }
}

/// Renders `(name, value)` entries as one JSON object keyed by name.
pub fn render_named<'a, T: Encode + ?Sized + 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a str, &'a T)>,
) {
    out.push('{');
    for (index, (name, value)) in entries.enumerate() {
        if index > 0 {
            out.push(',');
        }
        render_string(out, name);
        out.push(':');
        value.render(out);
    }
    out.push('}');
}

/// The `trace` reply's element shape (see `docs/observability.md`); JSON
/// leaves out an empty annotation list.
impl Fields for Span {
    const NAME: &'static str = "span";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        w.field("trace", &self.trace_id)?;
        w.field("span", &self.span_id)?;
        w.field("parent", &self.parent_id)?;
        w.field("name", &self.name)?;
        w.field("start_us", &self.start_us)?;
        w.field("dur_us", &self.dur_us)?;
        w.field_if(
            "annotations",
            &self.annotations,
            !self.annotations.is_empty(),
        )
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        Ok(Span {
            trace_id: r.field("trace")?,
            span_id: r.field("span")?,
            parent_id: r.field("parent")?,
            name: r.field("name")?,
            start_us: r.field("start_us")?,
            dur_us: r.field("dur_us")?,
            annotations: r.field_or("annotations", Vec::new)?,
        })
    }
}

/// Implements [`Fields`](crate::codec::Fields) for a struct whose fields all
/// travel as required members, in order: `field: "json key"`.
#[macro_export]
macro_rules! plain_fields {
    ($($ty:ty, $name:literal { $($field:ident: $key:literal),+ };)+) => {$(
        impl $crate::codec::Fields for $ty {
            const NAME: &'static str = $name;

            fn write_fields<W: $crate::codec::Writer>(
                &self,
                w: &mut W,
            ) -> Result<(), $crate::codec::WireError> {
                $(w.field($key, &self.$field)?;)+
                Ok(())
            }

            fn read_fields<R: $crate::codec::Reader>(
                r: &mut R,
            ) -> Result<Self, $crate::codec::WireError> {
                Ok(Self { $($field: r.field($key)?),+ })
            }
        }
    )+};
}

plain_fields! {
    SeriesSample, "series sample" { at_us: "at_us", metrics: "metrics" };
    SnapshotDelta, "series delta" { from_us: "from_us", to_us: "to_us", diff: "metrics" };
}

/// A snapshot renders as the `metrics` JSON body; binary carries the
/// counters and gauges as name/value pairs and each histogram's buckets with
/// its exemplars as a sparse (bucket index, trace id) list.
impl Encode for MetricsSnapshot {
    fn render(&self, out: &mut String) {
        self.render_json_into(out);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.counters.write(out)?;
        self.gauges.write(out)?;
        write_len(out, self.histograms.len(), MAX_SEQ_LEN, "named values")?;
        for (name, histogram) in &self.histograms {
            name.write(out)?;
            histogram.buckets().write(out)?;
            let exemplars = histogram.exemplars().iter().enumerate();
            let exemplars = exemplars.filter_map(|(index, id)| Some((index as u8, id.as_ref()?)));
            write_len(out, exemplars.clone().count(), MAX_SEQ_LEN, "exemplars")?;
            for (index, id) in exemplars {
                index.write(out)?;
                id.write(out)?;
            }
        }
        Ok(())
    }
}

/// Metric names are re-validated on the way in (they render unescaped on
/// the way out).
impl Decode for MetricsSnapshot {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        read_snapshot(&mut JsonReader::new(value, "metrics")).map_err(WireError::into_message)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        read_snapshot(&mut BinReader(reader))
    }
}

/// Reads a snapshot's three name-keyed instrument lists in either codec.
fn read_snapshot<R: Reader>(r: &mut R) -> Result<MetricsSnapshot, WireError> {
    let snapshot = MetricsSnapshot {
        counters: r.field_or("counters", Vec::new)?,
        gauges: r.field_or("gauges", Vec::new)?,
        histograms: r
            .field_or("histograms", Vec::new)?
            .into_iter()
            .map(|(name, Histogram(histogram))| (name, histogram))
            .collect(),
    };
    let counters = snapshot.counters.iter().map(|(name, _)| name);
    let gauges = snapshot.gauges.iter().map(|(name, _)| name);
    let histograms = snapshot.histograms.iter().map(|(name, _)| name);
    match counters
        .chain(gauges)
        .chain(histograms)
        .find(|name| !valid_metric_name(name))
    {
        Some(name) => Err(WireError::Corrupt(format!("illegal metric name {name:?}"))),
        None => Ok(snapshot),
    }
}

/// One decoded histogram: in JSON its `buckets` array and its `exemplars`
/// object (bucket upper bound `(1 << index) - 1` to trace id), in binary
/// its buckets and a sparse (bucket index, trace id) list.  A bucket array
/// may be shorter than the local bucket count — a trailing-zero-trimmed or
/// older peer's array zero-pads — and exemplars of unknown buckets are
/// ignored, so newer peers with more buckets still parse.
struct Histogram(HistogramSnapshot);

impl Decode for Histogram {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let mut r = JsonReader::new(value, "histogram");
        let buckets = r.field("buckets").map_err(WireError::into_message)?;
        let mut histogram = histogram_of(buckets)?;
        let exemplars: Vec<(String, String)> = r
            .field_or("exemplars", Vec::new)
            .map_err(WireError::into_message)?;
        for (le, id) in exemplars {
            let bound = le
                .parse::<u64>()
                .map_err(|_| format!("exemplar key `{le}` is not a bucket bound"))?;
            if let Some(index) = (0..LATENCY_BUCKETS).find(|i| (1u64 << i).wrapping_sub(1) == bound)
            {
                histogram.set_exemplar(index, id);
            }
        }
        Ok(Self(histogram))
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut histogram = histogram_of(Vec::read(reader)?).map_err(WireError::Corrupt)?;
        for _ in 0..read_len(reader, MAX_SEQ_LEN, "exemplars")? {
            let index = u8::read(reader)?;
            histogram.set_exemplar(usize::from(index), String::read(reader)?);
        }
        Ok(Self(histogram))
    }
}

/// A histogram from its bucket counts, of which there may be at most
/// [`LATENCY_BUCKETS`].
fn histogram_of(buckets: Vec<u64>) -> Result<HistogramSnapshot, String> {
    HistogramSnapshot::from_buckets(&buckets)
        .ok_or_else(|| format!("{} buckets are more than {LATENCY_BUCKETS}", buckets.len()))
}

/// The length rule both codecs share: `len` may not exceed `cap`.
#[inline]
fn check_len(len: usize, cap: usize, what: &str) -> Result<usize, String> {
    if len > cap {
        return Err(over_cap(len, cap, what));
    }
    Ok(len)
}

/// Out of line, so that the length checks inlined into every string and
/// sequence read stay small.
#[cold]
fn over_cap(len: usize, cap: usize, what: &str) -> String {
    format!("{what} length {len} exceeds the {cap} cap")
}

/// Writes a `u32` length/count header, refusing a `len` over `cap` (the
/// decoder's [`read_len`] would reject it).  Both caps fit in a `u32`.
fn write_len(out: &mut impl Write, len: usize, cap: usize, what: &str) -> Result<(), WireError> {
    let len = check_len(len, cap, what).map_err(WireError::Corrupt)?;
    out.write_all(&(len as u32).to_le_bytes())?;
    Ok(())
}

/// Reads a `u32` length/count header, enforcing `cap` before any allocation.
fn read_len(reader: &mut impl Read, cap: usize, what: &str) -> Result<usize, WireError> {
    let mut bytes = [0u8; 4];
    reader.read_exact(&mut bytes)?;
    check_len(u32::from_le_bytes(bytes) as usize, cap, what).map_err(WireError::Corrupt)
}

/// Encodes one value to a fresh byte vector — convenience for tests and
/// one-shot callers; hot paths write into a reused buffer instead.
///
/// # Errors
///
/// Propagates [`WireError::Corrupt`] from over-cap strings and sequences;
/// writing to a `Vec` cannot fail.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    value.write(&mut out)?;
    Ok(out)
}

/// Decodes one value from a byte slice, requiring every byte to be consumed.
///
/// # Errors
///
/// Returns [`WireError::Io`] on truncation, [`WireError::Corrupt`] on bad
/// bytes or trailing garbage.
pub fn from_bytes<T: Decode>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::read(&mut bytes)?;
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
    use crate::PointRecord;

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

    /// Round-trips `value` through both codecs.
    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value).expect("encodes");
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
        let mut json = String::new();
        value.render(&mut json);
        let parsed = JsonValue::parse(&json).expect("renders valid JSON");
        assert_eq!(&T::from_json(&parsed).expect("parses"), value, "{json}");
    }

    #[test]
    fn primitives_round_trip() {
        for value in [0u8, 1, 0x7f, 0xff] {
            round_trip(&value);
        }
        for value in [0u64, 1, u64::from(u32::MAX), u64::MAX] {
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
        round_trip(&vec![("a".to_owned(), 1i64), ("b \"c\"".to_owned(), -1)]);
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
            if value.is_finite() {
                let mut json = String::new();
                value.render(&mut json);
                let back = f64::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
                assert_eq!(back.to_bits(), value.to_bits(), "{json}");
            }
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
        let bytes = u32::MAX.to_le_bytes();
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(WireError::Corrupt(_))
        ));

        // A sequence count over the cap.
        let bytes = (MAX_SEQ_LEN as u32 + 1).to_le_bytes();
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::Corrupt(_))
        ));

        // Invalid UTF-8 payload.
        let mut bytes = 2u32.to_le_bytes().to_vec();
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
    fn both_codecs_refuse_sequences_over_the_cap() {
        let cap = format!("length {} exceeds the {MAX_SEQ_LEN} cap", MAX_SEQ_LEN + 1);
        let over = vec![0u8; MAX_SEQ_LEN + 1];
        match to_bytes(&over) {
            Err(WireError::Corrupt(message)) => assert!(message.ends_with(&cap), "{message}"),
            other => panic!("encoded an over-cap sequence: {other:?}"),
        }
        // At the cap both directions still work.
        let bytes = to_bytes(&over[..MAX_SEQ_LEN]).unwrap();
        assert_eq!(from_bytes::<Vec<u8>>(&bytes).unwrap().len(), MAX_SEQ_LEN);

        // The JSON decoders apply the same cap to arrays and named values.
        let array = JsonValue::Array(vec![JsonValue::Null; MAX_SEQ_LEN + 1]);
        let message = Vec::<Option<u8>>::from_json(&array).unwrap_err();
        assert!(message.ends_with(&cap), "{message}");
        let named = (0..=MAX_SEQ_LEN).map(|i| (i.to_string(), JsonValue::Null));
        let object = JsonValue::Object(named.collect());
        let message = Vec::<(String, Option<u8>)>::from_json(&object).unwrap_err();
        assert!(message.ends_with(&cap), "{message}");
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
