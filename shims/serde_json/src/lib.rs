//! Offline shim for `serde_json`: a JSON [`Value`] tree with its printer
//! and parser: writers build a `Value` and print it, readers parse one.
//!
//! Output is deterministic: object keys keep insertion order and floats
//! print with Rust's shortest round-trip representation (`{:?}`), so the
//! same `Value` always serializes to the same bytes — a property the
//! experiment harness's determinism tests rely on.

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// JSON number with the integer/float distinction preserved so `u64`
/// round-trips exactly (simulation timestamps are nanosecond `u64`s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object; error mentioning `ty` otherwise.
    pub fn field<'a>(&'a self, key: &str, ty: &str) -> Result<&'a Value, Error> {
        let obj = self
            .as_obj()
            .ok_or_else(|| Error(format!("expected object for {ty}")))?;
        obj.iter()
            .find_map(|(k, v)| (k == key).then_some(v))
            .ok_or_else(|| Error(format!("missing field `{key}` for {ty}")))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(Number::U(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(Number::F(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Collects `(key, value)` pairs into an object, keeping their order.
impl<K: Into<String>> FromIterator<(K, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        Value::Obj(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// A parse or lookup error (a message, no position tracking beyond it).
#[derive(Clone, Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Print as compact JSON.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    Ok(out)
}

/// Print as pretty JSON (two-space indent, like the real crate).
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    Ok(out)
}

// --- printer -------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(Number::U(u)) => out.push_str(&u.to_string()),
        Value::Num(Number::I(i)) => out.push_str(&i.to_string()),
        Value::Num(Number::F(f)) => {
            if f.is_finite() {
                // `{:?}` gives the shortest representation that parses back
                // to the same f64 (e.g. "1.0", not "1").
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
            write_value(out, &items[i], indent, depth + 1)
        }),
        Value::Obj(entries) => write_seq(out, indent, depth, entries.len(), '{', '}', |out, i| {
            let (k, v) = &entries[i];
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, depth + 1);
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser --------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a complete JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of input".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error("unterminated string".into()))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                }
                _ => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid UTF-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if matches!(self.bytes.get(self.pos), Some(b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if text.is_empty() || text == "-" {
            return Err(Error(format!("expected number at byte {start}")));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact_and_pretty() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(Number::U(u64::MAX))),
            (
                "b".into(),
                Value::Arr(vec![Value::Num(Number::F(1.5)), Value::Null]),
            ),
            ("s".into(), Value::Str("q\"uote\n".into())),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse_value(&text).unwrap(), v);
        }
    }

    #[test]
    fn floats_keep_shortest_roundtrip_repr() {
        let floats = [1.0, 0.1, 13_253.0].map(|f| Value::Num(Number::F(f)));
        let s = to_string(&Value::Arr(floats.to_vec())).unwrap();
        assert_eq!(s, "[1.0,0.1,13253.0]");
    }

    #[test]
    fn constructors_build_objects_in_order() {
        let inner = Value::from_iter([(String::from("k"), "y".to_string().into())]);
        let v = Value::from_iter([
            ("u", Value::from(7u64)),
            ("f", 0.5.into()),
            ("b", true.into()),
            ("s", "x".into()),
            ("o", inner),
        ]);
        let text = r#"{"u":7,"f":0.5,"b":true,"s":"x","o":{"k":"y"}}"#;
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_value("1 x").is_err());
    }

    #[test]
    fn field_lookup_reports_missing() {
        let v = Value::Obj(vec![("a".into(), Value::Bool(true))]);
        assert!(v.field("a", "T").is_ok());
        assert!(v
            .field("b", "T")
            .unwrap_err()
            .to_string()
            .contains("missing field `b`"));
    }
}
