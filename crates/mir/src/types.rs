//! Scalar types and runtime values of the mini-IR.

use std::fmt;

/// The scalar types supported by the IR.
///
/// Arrays are not first-class types; a variable declares an element type and
/// an element count (see [`crate::module::Var`]). This mirrors how the
/// DiscoPoP profiler sees memory: as addressed cells of machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "i64"),
            Ty::F64 => write!(f, "f64"),
        }
    }
}

/// A runtime value flowing through registers and memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I64(i64),
    F64(f64),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Ty {
        match self {
            Value::I64(_) => Ty::I64,
            Value::F64(_) => Ty::F64,
        }
    }

    /// The zero value of a given type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::I64 => Value::I64(0),
            Ty::F64 => Value::F64(0.0),
        }
    }

    /// Interpret as an integer, truncating floats.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            Value::F64(v) => *v as i64,
        }
    }

    /// Interpret as a float, converting integers.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::I64(v) => *v as f64,
            Value::F64(v) => *v,
        }
    }

    /// Truthiness used by conditional branches: nonzero is true.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::I64(v) => *v != 0,
            Value::F64(v) => *v != 0.0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::I64(v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_roundtrip() {
        assert_eq!(Value::I64(3).ty(), Ty::I64);
        assert_eq!(Value::F64(3.5).ty(), Ty::F64);
        assert_eq!(Value::zero(Ty::I64), Value::I64(0));
        assert_eq!(Value::zero(Ty::F64), Value::F64(0.0));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::F64(2.9).as_i64(), 2);
        assert_eq!(Value::I64(2).as_f64(), 2.0);
        assert!(Value::I64(-1).is_truthy());
        assert!(!Value::F64(0.0).is_truthy());
        assert_eq!(Value::from(true), Value::I64(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ty::I64.to_string(), "i64");
        assert_eq!(Value::I64(7).to_string(), "7");
    }
}
