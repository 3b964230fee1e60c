//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy visitor framework; this shim is a simple
//! value-tree model: `Serialize` lowers to a [`Value`], `Deserialize` lifts
//! from one. The derive macros (from the sibling `serde_derive` shim) and
//! the `serde_json` shim both target this model. The JSON encoding matches
//! serde's defaults for the shapes used in this workspace: structs as
//! objects, unit enum variants as strings, data-carrying variants as
//! single-key objects (externally tagged), `Duration` as
//! `{"secs", "nanos"}`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// Key-ordered object map (deterministic output).
pub type Map = BTreeMap<String, Value>;

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integers (fits i64).
    Int(i64),
    /// Unsigned integers that do not fit i64.
    UInt(u64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization/serialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Lower `self` into a [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// `self` as a tree to read from: a [`Value`] lends itself, every
    /// other type lowers first. What an emitter walks, so that writing
    /// out a tree does not start by copying it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Lift `Self` from a [`Value`].
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Lift from a tree the caller is done with: a [`Value`] is the tree
    /// itself, every other type reads it. What a parser hands its result
    /// to, so that parsing to a tree does not end by copying it.
    fn from_owned(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }
}

/// Fetch and deserialize a struct field; missing keys read as `Null` so
/// `Option` fields tolerate omission.
pub fn field<T: Deserialize>(m: &Map, key: &str) -> Result<T, Error> {
    match m.get(key) {
        Some(v) => T::from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => T::from_value(&Value::Null).map_err(|_| Error(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i128;
                if let Ok(i) = i64::try_from(wide) {
                    Value::Int(i)
                } else {
                    Value::UInt(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let out = match v {
                    Value::Int(i) => <$t>::try_from(*i).ok(),
                    Value::UInt(u) => <$t>::try_from(*u).ok(),
                    // tolerate exact floats (JSON writers that emit 3.0)
                    Value::Float(f) if f.fract() == 0.0 && f.is_finite() => {
                        <$t>::try_from(*f as i64).ok()
                    }
                    _ => None,
                };
                out.ok_or_else(|| {
                    Error(format!("expected {}, got {:?}", stringify!($t), v))
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(Error(format!(
                        "expected {}, got {}", stringify!($t), other.kind()))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {}", other.kind()))),
        }
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
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<($($t,)+), Error> {
                const LEN: usize = [$($n),+].len();
                let a = v.as_array().ok_or_else(|| {
                    Error(format!("expected array (tuple), got {}", v.kind()))
                })?;
                if a.len() != LEN {
                    return Err(Error(format!(
                        "expected {LEN}-tuple, got array of {}", a.len())));
                }
                Ok(($($t::from_value(&a[$n])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("secs".into(), self.as_secs().to_value());
        m.insert("nanos".into(), self.subsec_nanos().to_value());
        Value::Object(m)
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Duration, Error> {
        let m = v
            .as_object()
            .ok_or_else(|| Error(format!("expected duration object, got {}", v.kind())))?;
        Ok(Duration::new(field(m, "secs")?, field(m, "nanos")?))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }

    fn from_owned(v: Value) -> Result<Value, Error> {
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&(u64::MAX.to_value())).unwrap(), u64::MAX);
        assert_eq!(i64::from_value(&((-5i64).to_value())).unwrap(), -5);
        assert_eq!(f64::from_value(&(2.5f64.to_value())).unwrap(), 2.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        let d = Duration::new(3, 250);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
        let pair = (7u32, 9usize);
        assert_eq!(<(u32, usize)>::from_value(&pair.to_value()).unwrap(), pair);
    }

    #[test]
    fn big_u64_is_not_truncated() {
        let x = (1u64 << 62) + 12345;
        assert_eq!(u64::from_value(&x.to_value()).unwrap(), x);
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert!(u32::from_value(&Value::String("x".into())).is_err());
        assert!(Vec::<u32>::from_value(&Value::Int(1)).is_err());
    }
}
