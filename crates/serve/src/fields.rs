//! The codec-neutral field layer under both wire codecs.
//!
//! Every message type lists its fields once, against a [`Writer`] and a
//! [`Reader`].  The JSON pair ([`JsonWriter`] / [`JsonReader`]) maps a field
//! to an object member by key; the binary pair ([`BinWriter`] /
//! [`BinReader`]) maps it to the next value in declaration order.  Both are
//! generic (static dispatch), so each codec compiles to straight-line code
//! per message.
//!
//! Field values implement [`Encode`] / [`Decode`], which carry both codecs'
//! encodings of one value type.  Structs made only of fields implement
//! [`Fields`] instead and get both traits for free.

use std::fmt::Write as _;
use std::io::{Read, Write};

use srra_explore::codec::{read_len, write_seq_len, write_str, WireError, WireSerde, MAX_SEQ_LEN};
use srra_explore::{render_string, JsonValue, PointRecord};

/// The leading part of a message: its binary tag byte, and the members a
/// JSON object opens with (`"op":…` for requests, `"ok":…` for replies).
pub(crate) trait Head: Copy {
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
pub(crate) trait Writer {
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
pub(crate) trait Reader {
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
pub(crate) trait Encode {
    /// Appends the JSON encoding.
    fn render(&self, out: &mut String);
    /// Appends the binary encoding.
    fn write(&self, out: &mut impl Write) -> Result<(), WireError>;
}

/// A value type's decoding in both codecs.
pub(crate) trait Decode: Sized {
    /// What the JSON value must be, for error messages (`a string`, …).
    const KIND: &'static str;
    /// Decodes a JSON value.
    fn from_json(value: &JsonValue) -> Result<Self, String>;
    /// Reads the binary encoding.
    fn read(reader: &mut impl Read) -> Result<Self, WireError>;
}

/// A struct encoded as its field list: a JSON object, or its fields' binary
/// values back to back.
pub(crate) trait Fields: Sized {
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
        T::read_fields(&mut JsonReader::new(value, T::NAME)).map_err(message)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        T::read_fields(&mut BinReader(reader))
    }
}

/// The text of a decoding error, for the JSON codec's `String` errors.
pub(crate) fn message(err: WireError) -> String {
    match err {
        WireError::Corrupt(message) => message,
        WireError::Io(err) => err.to_string(),
    }
}

/// Writes a JSON object's members into a caller-owned buffer.
pub(crate) struct JsonWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// Appends one JSON object to `out`, its members written by `body`.
    pub(crate) fn object(
        out: &'a mut String,
        body: impl FnOnce(&mut Self) -> Result<(), WireError>,
    ) {
        out.push('{');
        let mut w = Self { out, empty: true };
        // Rendering JSON into a `String` cannot fail.
        let rendered = body(&mut w);
        debug_assert!(rendered.is_ok());
        w.out.push('}');
    }

    /// Starts the member `key` (keys are plain identifiers: no escaping).
    pub(crate) fn member(&mut self, key: &str) -> &mut String {
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
pub(crate) struct JsonReader<'a> {
    value: &'a JsonValue,
    /// The message's name in error messages.
    what: &'a str,
}

impl<'a> JsonReader<'a> {
    /// A reader over the object `value`, named `what` in error messages.
    pub(crate) fn new(value: &'a JsonValue, what: &'a str) -> Self {
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
pub(crate) struct BinWriter<'a, W>(pub(crate) &'a mut W);

impl<W: Write> Writer for BinWriter<'_, W> {
    const JSON: bool = false;

    fn open(&mut self, head: impl Head) -> Result<(), WireError> {
        head.tag().serialize_into(self.0)
    }

    fn field<T: Encode + ?Sized>(&mut self, _: &str, value: &T) -> Result<(), WireError> {
        value.write(self.0)
    }
}

/// Reads fields as binary values in order.
pub(crate) struct BinReader<'a, R>(pub(crate) &'a mut R);

impl<R: Read> Reader for BinReader<'_, R> {
    fn field<T: Decode>(&mut self, _: &str) -> Result<T, WireError> {
        T::read(self.0)
    }

    fn field_or<T: Decode>(&mut self, _: &str, _: impl FnOnce() -> T) -> Result<T, WireError> {
        T::read(self.0)
    }

    fn tag(&mut self, _: impl FnOnce(&JsonValue) -> u8) -> Result<u8, WireError> {
        u8::deserialize_from(self.0)
    }
}

/// Encode and Decode for values whose binary form is their `WireSerde`
/// encoding: `render` and `parse` give the JSON form.
macro_rules! wire_values {
    ($($ty:ty: $kind:literal, |$v:ident, $out:ident| $render:expr, |$json:ident| $parse:expr;)*) => {$(
        impl Encode for $ty {
            fn render(&self, $out: &mut String) {
                let $v = self;
                let _ = $render;
            }

            fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
                self.serialize_into(out)
            }
        }

        impl Decode for $ty {
            const KIND: &'static str = $kind;

            fn from_json($json: &JsonValue) -> Result<Self, String> {
                $parse.ok_or_else(|| format!("expected {}", $kind))
            }

            fn read(reader: &mut impl Read) -> Result<Self, WireError> {
                <$ty>::deserialize_from(reader)
            }
        }
    )*};
}

wire_values! {
    u64: "a number", |v, out| write!(out, "{v}"), |json| json.as_u64();
    i64: "an integer", |v, out| write!(out, "{v}"), |json| match json {
        JsonValue::Number(raw) => raw.parse().ok(),
        _ => None,
    };
    bool: "a boolean", |v, out| out.push_str(if *v { "true" } else { "false" }), |json| json.as_bool();
    String: "a string", |v, out| render_string(out, v), |json| json.as_str().map(str::to_owned);
}

impl Encode for str {
    fn render(&self, out: &mut String) {
        render_string(out, self);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_str(out, self)
    }
}

/// A record travels as its JSON line ([`PointRecord::to_json_line`]) or as
/// its `WireSerde` payload (the same bytes a segment shard file stores).
impl Encode for PointRecord {
    fn render(&self, out: &mut String) {
        self.write_json_line(out);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.serialize_into(out)
    }
}

impl Decode for PointRecord {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        PointRecord::from_json_value(value)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        PointRecord::deserialize_from(reader)
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
        write_seq_len(out, self.len())?;
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
        match u8::deserialize_from(reader)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(reader)?)),
            other => Err(WireError::Corrupt(format!("bad option byte {other:#04x}"))),
        }
    }
}

/// Named values (span annotations, counters, gauges): a JSON object keyed
/// by name, a sequence of name/value pairs in binary.
impl<T: Encode> Encode for Vec<(String, T)> {
    fn render(&self, out: &mut String) {
        out.push('{');
        for (index, (name, value)) in self.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            render_string(out, name);
            out.push(':');
            value.render(out);
        }
        out.push('}');
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        write_seq_len(out, self.len())?;
        for (name, value) in self {
            write_str(out, name)?;
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
