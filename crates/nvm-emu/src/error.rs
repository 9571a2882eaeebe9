//! Device error types and the shared error-enum plumbing macro.

/// Implement `From`, `Display`, and `std::error::Error::source` for an
/// error enum in one place.
///
/// Every error enum in this workspace has the same shape: some
/// *wrapper* variants holding a lower-layer error (which want a
/// `From` impl, a `"label: {inner}"` display, and a `source()` chain)
/// plus some *leaf* variants with their own message. Before this
/// macro each crate hand-wrote the three impls; now they declare:
///
/// ```
/// #[non_exhaustive]
/// #[derive(Debug)]
/// pub enum MyError {
///     Device(nvm_emu::DeviceError),
///     Empty { name: String },
/// }
/// nvm_emu::error_enum! {
///     MyError, f {
///         wrap Device(nvm_emu::DeviceError) => "device",
///         leaf MyError::Empty { name } => write!(f, "{name} is empty"),
///     }
/// }
/// ```
///
/// `f` names the `fmt::Formatter` binding the `leaf` arms may use
/// (passed explicitly because macro hygiene would otherwise hide it).
/// `wrap` variants chain: `source()` returns the wrapped error, so
/// callers can walk `EngineError -> HeapError -> DeviceError`.
#[macro_export]
macro_rules! error_enum {
    (
        $err:ident, $f:ident {
            $( wrap $wvar:ident($winner:ty) => $wlabel:literal, )*
            $( leaf $lpat:pat => $lexpr:expr, )*
        }
    ) => {
        $(
            impl ::std::convert::From<$winner> for $err {
                fn from(e: $winner) -> Self {
                    $err::$wvar(e)
                }
            }
        )*

        impl ::std::fmt::Display for $err {
            fn fmt(&self, $f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                // `#[non_exhaustive]` does not apply inside the
                // defining crate, so this match is still checked for
                // exhaustiveness where the macro is invoked.
                match self {
                    $( $err::$wvar(e) => ::std::write!($f, concat!($wlabel, ": {}"), e), )*
                    $( $lpat => $lexpr, )*
                }
            }
        }

        impl ::std::error::Error for $err {
            fn source(&self) -> ::std::option::Option<&(dyn ::std::error::Error + 'static)> {
                #[allow(unreachable_patterns)]
                match self {
                    $( $err::$wvar(e) => ::std::option::Option::Some(e), )*
                    _ => ::std::option::Option::None,
                }
            }
        }
    };
}

/// Errors reported by the emulated memory devices.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// Allocation would exceed device capacity.
    OutOfCapacity {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available on the device.
        available: usize,
    },
    /// The region id is unknown (never allocated or already freed).
    NoSuchRegion(u64),
    /// An access fell outside the region bounds.
    OutOfBounds {
        /// Region being accessed.
        region: u64,
        /// Starting offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Total region length.
        region_len: usize,
    },
    /// Byte-level read from a synthetic (size-only) region.
    SyntheticAccess(u64),
    /// The attached spill store failed an I/O operation (message from
    /// the underlying `io::Error`; kept as a string so the variant
    /// stays `Clone + PartialEq` like the rest of the enum).
    Spill(String),
}

crate::error_enum! {
    DeviceError, f {
        leaf DeviceError::OutOfCapacity { requested, available } => write!(
            f,
            "out of device capacity: requested {requested} bytes, {available} available"
        ),
        leaf DeviceError::NoSuchRegion(id) => write!(f, "no such region: {id}"),
        leaf DeviceError::OutOfBounds { region, offset, len, region_len } => write!(
            f,
            "access [{offset}, {}) out of bounds for region {region} of length {region_len}",
            offset + len
        ),
        leaf DeviceError::SyntheticAccess(id) =>
            write!(f, "byte-level read from synthetic region {id}"),
        leaf DeviceError::Spill(msg) => write!(f, "spill store I/O failed: {msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_matches_hand_written_forms() {
        assert_eq!(
            DeviceError::NoSuchRegion(7).to_string(),
            "no such region: 7"
        );
        assert_eq!(
            DeviceError::OutOfCapacity {
                requested: 10,
                available: 4
            }
            .to_string(),
            "out of device capacity: requested 10 bytes, 4 available"
        );
    }

    #[test]
    fn leaf_errors_have_no_source() {
        assert!(DeviceError::SyntheticAccess(1).source().is_none());
    }
}
