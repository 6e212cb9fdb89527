//! A self-contained JSON subsystem: value type, parser, printers, and
//! serialization traits.
//!
//! The repo builds hermetically with zero external crates, so this
//! module replaces `serde`/`serde_json`. The printers are
//! byte-compatible with `serde_json`'s output for the value shapes the
//! repo produces (the seed `results/*.json` files round-trip
//! byte-identically; see the golden tests in `wasla-bench`). The
//! crucial detail is float formatting: like ryu, finite `f64`s print in
//! decimal notation when the decimal exponent lies in `[-5, 16)` and in
//! scientific notation (`1.5e-7`, `1e20`) otherwise, always using the
//! shortest digit string that round-trips. Non-finite floats print as
//! `null`, as `serde_json` does.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number. Integer and float forms are kept distinct so that
/// `u64`/`i64` fields round-trip without gaining a fractional point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// A non-negative integer (`u64` range).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::UInt(v) => v as f64,
            Number::Int(v) => v as f64,
            Number::Float(v) => v,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::UInt(v) => Some(v),
            Number::Int(v) => u64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Int(v) => Some(v),
            Number::Float(_) => None,
        }
    }
}

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), so
/// printing a parsed document reproduces the original key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// An error produced while parsing or decoding JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// The undecorated message (without the `json error:` prefix that
    /// [`Display`](fmt::Display) adds).
    pub fn message(&self) -> &str {
        &self.msg
    }

    /// A "missing field" decode error.
    pub fn missing_field(name: &str) -> Self {
        JsonError::new(format!("missing field `{name}`"))
    }

    /// A "wrong type" decode error.
    pub fn expected(what: &str, got: &Json) -> Self {
        JsonError::new(format!("expected {what}, got {}", got.kind_name()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }

    /// A short name for the value's kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up a field of an object.
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn items(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::expected("array", other)),
        }
    }

    /// Prints the value compactly (no whitespace), like
    /// `serde_json::to_string`.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-prints the value with two-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some("  "), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::UInt(v) => out.push_str(&v.to_string()),
        Number::Int(v) => out.push_str(&v.to_string()),
        Number::Float(v) => write_f64(out, v),
    }
}

/// Formats a finite `f64` exactly as ryu (and therefore `serde_json`)
/// does: shortest round-trip digits, decimal notation for decimal
/// exponents in `[-5, 16)`, scientific otherwise. Non-finite values
/// become `null`. A thin wrapper over [`write_f64`].
pub fn format_f64(x: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, x);
    out
}

/// Appends [`format_f64`]`(x)` to `out` without allocating anything
/// beyond `out`'s own growth.
pub fn write_f64(out: &mut String, x: f64) {
    use fmt::Write as _;
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:e}` gives the shortest round-trip digit string as
    // `[-]D[.DDDD]eK`. Render it at the end of `out`, lift the digits
    // and the exponent out, then re-place the decimal point per ryu's
    // notation rule over the same bytes.
    let start = out.len();
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{x:e}");
    let mut digits = [0u8; 17]; // an f64's shortest form has ≤ 17
    let mut n = 0;
    let mut k = 0i32;
    let mut k_negative = false;
    let mut in_exponent = false;
    for &b in &out.as_bytes()[start..] {
        match b {
            b'e' => in_exponent = true,
            b'-' if in_exponent => k_negative = true,
            b'0'..=b'9' if in_exponent => k = k * 10 + i32::from(b - b'0'),
            b'0'..=b'9' if n < digits.len() => {
                digits[n] = b;
                n += 1;
            }
            _ => {} // the sign, the point
        }
    }
    if k_negative {
        k = -k;
    }
    let negative = x.is_sign_negative();
    out.truncate(start);
    let digits = &digits[..n];
    let push = |out: &mut String, bytes: &[u8]| out.extend(bytes.iter().map(|&b| char::from(b)));
    if negative {
        out.push('-');
    }
    if (-5..16).contains(&k) {
        if k < 0 {
            out.push_str("0.");
            for _ in 0..(-k - 1) {
                out.push('0');
            }
            push(out, digits);
        } else {
            let k = k as usize;
            if k + 1 >= digits.len() {
                push(out, digits);
                for _ in 0..(k + 1 - digits.len()) {
                    out.push('0');
                }
                out.push_str(".0");
            } else {
                push(out, &digits[..k + 1]);
                out.push('.');
                push(out, &digits[k + 1..]);
            }
        }
    } else {
        push(out, &digits[..1]);
        if digits.len() > 1 {
            out.push('.');
            push(out, &digits[1..]);
        }
        let _ = write!(out, "e{k}");
    }
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts. The parser recurses
/// per nesting level, so hostile input like `"[".repeat(1_000_000)`
/// must produce a typed error, not a stack overflow; no document the
/// repo produces nests anywhere near this deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat("\\u")
                                    .map_err(|_| self.error("unpaired surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 encoded char.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.error("invalid unicode escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Num(Number::UInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Num(Number::Int(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Json::Num(Number::Float(v)))
            .map_err(|_| self.error("invalid number"))
    }
}

/// Serialization to a [`Json`] value.
pub trait ToJson {
    /// Converts the value.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes the value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Number::Float(*self))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(n.as_f64()),
            // serde_json writes non-finite floats as null; accept the
            // same on the way back in so such documents round-trip.
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::expected("number", other)),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(Number::UInt(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => n
                        .as_u64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| JsonError::expected(stringify!($t), v)),
                    other => Err(JsonError::expected(stringify!($t), other)),
                }
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v < 0 {
                    Json::Num(Number::Int(v))
                } else {
                    Json::Num(Number::UInt(v as u64))
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => n
                        .as_i64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| JsonError::expected(stringify!($t), v)),
                    other => Err(JsonError::expected(stringify!($t), other)),
                }
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::expected("string", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.items()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

macro_rules! impl_json_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let items = v.items()?;
                let expected = [$(stringify!($idx)),+].len();
                if items.len() != expected {
                    return Err(JsonError::new(format!(
                        "expected a {expected}-tuple, got {} elements",
                        items.len()
                    )));
                }
                Ok(($($name::from_json(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_json_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Implements `ToJson`/`FromJson` for a struct as an object with one
/// entry per listed field, in the listed order (matching what
/// `#[derive(Serialize)]` produced). Must be invoked where the fields
/// are visible.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $(
                    let $field = $crate::json::FromJson::from_json(
                        v.field(stringify!($field)).ok_or_else(|| {
                            $crate::json::JsonError::missing_field(stringify!($field))
                        })?,
                    )?;
                )+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Implements `ToJson`/`FromJson` for a fieldless enum as a plain
/// string of the variant name (matching serde's external tagging for
/// unit variants).
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant)),+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $($crate::json::Json::Str(s) if s == stringify!($variant) => {
                        Ok(<$ty>::$variant)
                    })+
                    other => Err($crate::json::JsonError::new(format!(
                        concat!("unknown ", stringify!($ty), " variant: {:?}"),
                        other
                    ))),
                }
            }
        }
    };
}

/// Builds the serde-style externally-tagged object for one enum
/// variant: `{"Variant": payload}`.
pub fn variant(name: &str, payload: Json) -> Json {
    Json::Obj(vec![(name.to_string(), payload)])
}

/// Decodes a serde-style externally-tagged enum value: returns the
/// variant name and its payload.
pub fn untag(v: &Json) -> Result<(&str, &Json), JsonError> {
    match v {
        Json::Obj(pairs) if pairs.len() == 1 => Ok((pairs[0].0.as_str(), &pairs[0].1)),
        other => Err(JsonError::expected("a single-key enum object", other)),
    }
}

/// Serializes any `ToJson` value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serializes any `ToJson` value with pretty indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses and decodes a typed value from a JSON document.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(Number::UInt(42)));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(Number::Int(-7)));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(Number::Float(1.5)));
        assert_eq!(
            Json::parse("1e-3").unwrap(),
            Json::Num(Number::Float(0.001))
        );
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": []}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.field("a").unwrap().items().unwrap().len(), 3);
        assert_eq!(v.field("b").unwrap().field("c"), Some(&Json::Null));
        assert_eq!(v.field("d").unwrap(), &Json::Arr(vec![]));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash \t tab \u{1} ctl \u{1F600} emoji";
        let printed = Json::Str(original.to_string()).to_string_compact();
        let back = Json::parse(&printed).unwrap();
        assert_eq!(back, Json::Str(original.to_string()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".to_string())
        );
        // Surrogate pair for U+1D11E (musical G clef).
        assert_eq!(
            Json::parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
    }

    #[test]
    fn float_formatting_matches_ryu_notation() {
        for (x, want) in [
            (1.0, "1.0"),
            (0.1, "0.1"),
            (-2.25, "-2.25"),
            (0.000011728, "0.000011728"),
            (0.000017369448735551907, "0.000017369448735551907"),
            (1.5e-7, "1.5e-7"),
            (1e16, "1e16"),
            (1.5e20, "1.5e20"),
            (1e15, "1000000000000000.0"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
        ] {
            assert_eq!(format_f64(x), want, "formatting {x}");
        }
    }

    #[test]
    fn non_finite_floats_print_null() {
        assert_eq!(f64::NAN.to_json().to_string_compact(), "null");
        assert_eq!(f64::INFINITY.to_json().to_string_compact(), "null");
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }

    #[test]
    fn integers_keep_integer_form() {
        let v = Json::parse("[0, 18446744073709551615, -9223372036854775808]").unwrap();
        assert_eq!(
            v.to_string_compact(),
            "[0,18446744073709551615,-9223372036854775808]"
        );
    }

    #[test]
    fn pretty_print_matches_serde_style() {
        let v = Json::parse(r#"{"id":"x","rows":[{"m":[["a",1.5]]}],"empty":[]}"#).unwrap();
        let want = "{\n  \"id\": \"x\",\n  \"rows\": [\n    {\n      \"m\": [\n        [\n          \"a\",\n          1.5\n        ]\n      ]\n    }\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_string_pretty(), want);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Reasonable nesting parses; hostile nesting gets a typed
        // error instead of exhausting the stack.
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Unbalanced hostile input (no closers at all) must also fail
        // cleanly — this is the stack-overflow shape.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1 << 18)).is_err());
        // Depth is the *current* nesting, not a cumulative count:
        // many sibling containers at the same level stay fine.
        let wide = format!("[{}]", vec!["[[1]]"; 200].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":}",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f64,
        tags: Vec<String>,
        extra: Option<f64>,
    }

    impl_json_struct!(Demo {
        name,
        count,
        ratio,
        tags,
        extra
    });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            name: "x".to_string(),
            count: 3,
            ratio: 0.5,
            tags: vec!["a".to_string(), "b".to_string()],
            extra: None,
        };
        let text = to_string(&d);
        assert_eq!(
            text,
            r#"{"name":"x","count":3,"ratio":0.5,"tags":["a","b"],"extra":null}"#
        );
        let back: Demo = from_str(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn struct_macro_reports_missing_fields() {
        let err = from_str::<Demo>(r#"{"name":"x"}"#).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }

    impl_json_unit_enum!(Color { Red, Green });

    #[test]
    fn unit_enum_serializes_as_string() {
        assert_eq!(to_string(&Color::Red), "\"Red\"");
        assert_eq!(from_str::<Color>("\"Green\"").unwrap(), Color::Green);
        assert!(from_str::<Color>("\"Blue\"").is_err());
    }

    #[test]
    fn tuples_serialize_as_arrays() {
        let pair = ("elapsed".to_string(), 1.5f64);
        assert_eq!(to_string(&pair), r#"["elapsed",1.5]"#);
        let back: (String, f64) = from_str(r#"["elapsed",1.5]"#).unwrap();
        assert_eq!(back, pair);
        assert!(from_str::<(String, f64)>("[\"a\"]").is_err());
    }

    /// The pre-`write_f64` formatter, kept verbatim as the oracle the
    /// in-place one must match byte for byte.
    fn format_f64_reference(x: f64) -> String {
        if !x.is_finite() {
            return "null".to_string();
        }
        let exp = format!("{x:e}");
        let (mantissa, k) = exp.split_once('e').expect("LowerExp always contains e");
        let k: i32 = k.parse().expect("LowerExp exponent is an integer");
        let (sign, mantissa) = match mantissa.strip_prefix('-') {
            Some(m) => ("-", m),
            None => ("", mantissa),
        };
        let digits: String = mantissa.chars().filter(|&c| c != '.').collect();
        let mut out = String::from(sign);
        if (-5..16).contains(&k) {
            if k < 0 {
                out.push_str("0.");
                for _ in 0..(-k - 1) {
                    out.push('0');
                }
                out.push_str(&digits);
            } else {
                let k = k as usize;
                if k + 1 >= digits.len() {
                    out.push_str(&digits);
                    for _ in 0..(k + 1 - digits.len()) {
                        out.push('0');
                    }
                    out.push_str(".0");
                } else {
                    out.push_str(&digits[..k + 1]);
                    out.push('.');
                    out.push_str(&digits[k + 1..]);
                }
            }
        } else {
            out.push_str(&digits[..1]);
            if digits.len() > 1 {
                out.push('.');
                out.push_str(&digits[1..]);
            }
            out.push('e');
            out.push_str(&k.to_string());
        }
        out
    }

    /// Asserts `write_f64` appends exactly the oracle's bytes, after
    /// whatever `out` already held.
    fn assert_matches_reference(x: f64) {
        let mut out = String::from("[");
        write_f64(&mut out, x);
        assert_eq!(
            out,
            format!("[{}", format_f64_reference(x)),
            "formatting {x:e} (bits {:016x})",
            x.to_bits()
        );
        assert_eq!(format_f64(x), format_f64_reference(x));
    }

    #[test]
    fn write_f64_matches_reference_at_the_edges() {
        for x in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            5e-324,
            -5e-324,
            1e-5,
            9.999999999999999e-6,
            1e-6,
            1e15,
            9999999999999998.0,
            1e16,
            123456789012345680.0,
            0.1 + 0.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_matches_reference(x);
        }
        for k in -330..310 {
            let x: f64 = format!("1.2345678901234567e{k}").parse().unwrap();
            assert_matches_reference(x);
            assert_matches_reference(-x);
            assert_matches_reference(10f64.powi(k));
        }
    }

    crate::proptest! {
        /// Every bit pattern (finite or not, any sign or exponent)
        /// formats exactly as the oracle does.
        #[test]
        fn write_f64_matches_reference_on_any_bits(
            bits in crate::proptest::any::<u64>(),
            scale in 0u64..64,
        ) {
            assert_matches_reference(f64::from_bits(bits));
            // Also the low-exponent and small-integer shapes random
            // bits rarely reach.
            assert_matches_reference(f64::from_bits(bits >> scale));
            assert_matches_reference((bits >> scale) as f64);
            assert_matches_reference((bits % 1_000_000) as f64 / 1e6);
        }
    }
}
