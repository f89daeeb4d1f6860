//! Types of the mini-language and IR.
//!
//! The paper's formal language (§3) is untyped apart from the distinction
//! between values and k-level pointers; we keep a small nominal type system
//! (`int`, `bool`, and arbitrarily nested pointers) so that the front end
//! can reject ill-formed programs early and the points-to analysis knows
//! which values can carry addresses.

use std::fmt;

/// The non-pointer type at the bottom of a [`Type`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Base {
    /// Machine integer.
    Int,
    /// Boolean.
    Bool,
}

/// A mini-language type: a [`Base`] behind zero or more pointer levels.
///
/// Two words of plain data, so every value of the IR carries its type
/// inline: [`Type::Int`] and [`Type::Bool`] are the depth-0 constants
/// (usable as values and as patterns), [`Type::ptr_to`] adds a level.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    base: Base,
    depth: u32,
}

#[allow(non_upper_case_globals)]
impl Type {
    /// Machine integer.
    pub const Int: Type = Type {
        base: Base::Int,
        depth: 0,
    };

    /// Boolean.
    pub const Bool: Type = Type {
        base: Base::Bool,
        depth: 0,
    };
}

impl Type {
    /// Pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type {
            base: self.base,
            depth: self
                .depth
                .checked_add(1)
                .expect("pointer depth fits in u32"),
        }
    }

    /// Pointer to `int` with the given indirection depth
    /// (`int_ptr(0) = int`, `int_ptr(2) = int**`).
    pub fn int_ptr(depth: usize) -> Type {
        Type {
            base: Base::Int,
            depth: u32::try_from(depth).expect("pointer depth fits in u32"),
        }
    }

    /// The type under every pointer level (`bool** → Base::Bool`).
    pub fn base(self) -> Base {
        self.base
    }

    /// Returns the pointee type, if this is a pointer.
    pub fn pointee(self) -> Option<Type> {
        self.deref(1)
    }

    /// Number of pointer levels (`int** → 2`).
    pub fn indirection(self) -> usize {
        self.depth as usize
    }

    /// Result type of dereferencing `k` times, if well-formed.
    pub fn deref(self, k: usize) -> Option<Type> {
        let k = u32::try_from(k).ok()?;
        Some(Type {
            base: self.base,
            depth: self.depth.checked_sub(k)?,
        })
    }

    /// `true` if the type is a pointer.
    pub fn is_ptr(self) -> bool {
        self.depth > 0
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.base {
            Base::Int => "int",
            Base::Bool => "bool",
        })?;
        (0..self.depth).try_for_each(|_| f.write_str("*"))
    }
}

/// Prints the nested shape (`Ptr(Ptr(Int))`), one `Ptr` per level.
impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..self.depth).try_for_each(|_| f.write_str("Ptr("))?;
        write!(f, "{:?}", self.base)?;
        (0..self.depth).try_for_each(|_| f.write_str(")"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nested_pointers() {
        assert_eq!(Type::int_ptr(2).to_string(), "int**");
        assert_eq!(Type::Bool.ptr_to().to_string(), "bool*");
    }

    #[test]
    fn indirection_counts_levels() {
        assert_eq!(Type::Int.indirection(), 0);
        assert_eq!(Type::int_ptr(3).indirection(), 3);
    }

    #[test]
    fn deref_walks_levels() {
        let t = Type::int_ptr(2);
        assert_eq!(t.deref(0), Some(Type::int_ptr(2)));
        assert_eq!(t.deref(1), Some(Type::int_ptr(1)));
        assert_eq!(t.deref(2), Some(Type::Int));
        assert_eq!(t.deref(3), None);
        assert_eq!(Type::Bool.deref(1), None);
    }

    #[test]
    fn constants_work_as_values_and_patterns() {
        let describe = |t: Type| match t {
            Type::Int => "int",
            Type::Bool => "bool",
            _ => "pointer",
        };
        assert_eq!(describe(Type::Int), "int");
        assert_eq!(describe(Type::Bool), "bool");
        assert_eq!(describe(Type::Bool.ptr_to()), "pointer");
        assert_eq!(Type::int_ptr(1).pointee(), Some(Type::Int));
        assert_eq!(Type::Int.pointee(), None);
        assert!(Type::int_ptr(1).is_ptr() && !Type::Bool.is_ptr());
        assert_eq!(format!("{:?}", Type::int_ptr(2)), "Ptr(Ptr(Int))");
        assert_eq!(std::mem::size_of::<Type>(), 8);
    }
}
