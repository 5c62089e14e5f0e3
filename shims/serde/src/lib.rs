//! Offline shim for `serde`.
//!
//! Instead of the real crate's zero-copy `Serializer`/`Deserializer`
//! machinery, this shim routes everything through an owned JSON-like
//! [`Value`] tree: `Serialize` lowers a value into a `Value`,
//! `Deserialize` lifts one back. That is all the workspace needs (its
//! only serialization sink is `serde_json`), and it keeps the derive
//! macros — implemented by hand in the sibling `serde_derive` shim —
//! small enough to live without `syn`.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value tree. Object keys keep insertion order so serialized
/// output is deterministic (important for the harness determinism tests).
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
    pub fn field<'a>(&'a self, key: &str, ty: &str) -> Result<&'a Value, DeError> {
        let obj = self
            .as_obj()
            .ok_or_else(|| DeError::new(format!("expected object for {ty}")))?;
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| DeError::new(format!("missing field `{key}` for {ty}")))
    }
}

/// Deserialization error (a message, no position tracking).
#[derive(Clone, Debug)]
pub struct DeError(String);

impl DeError {
    /// Build an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Lower `self` into a [`Value`].
pub trait Serialize {
    /// Convert to the value tree.
    fn to_value(&self) -> Value;
}

/// Lift `Self` back out of a [`Value`].
pub trait Deserialize: Sized {
    /// Convert from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- primitive impls -----------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Num(Number::U(*self as u64)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Num(Number::U(u)) => *u,
                    Value::Num(Number::I(i)) if *i >= 0 => *i as u64,
                    _ => return Err(DeError::new(concat!("expected unsigned integer for ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::Num(Number::U(i as u64)) } else { Value::Num(Number::I(i)) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match v {
                    Value::Num(Number::U(u)) => i64::try_from(*u)
                        .map_err(|_| DeError::new("integer out of range"))?,
                    Value::Num(Number::I(i)) => *i,
                    _ => return Err(DeError::new(concat!("expected integer for ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(Number::F(f)) => Ok(*f),
            Value::Num(Number::U(u)) => Ok(*u as f64),
            Value::Num(Number::I(i)) => Ok(*i as f64),
            _ => Err(DeError::new("expected number for f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self as f64))
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::new("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_arr()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(
            u64::from_value(&18_446_744_073_709_551_615u64.to_value()).unwrap(),
            u64::MAX
        );
        assert_eq!(i64::from_value(&(-5i64).to_value()).unwrap(), -5);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2].to_value()).unwrap(),
            vec![1, 2]
        );
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
