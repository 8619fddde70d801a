//! A compact binary wire format for choreographic transports.
//!
//! The paper's three libraries put values on the network with whatever the
//! host ecosystem offers (Haskell `Show`/`Read`, JSON in TypeScript and
//! Rust). This crate is the equivalent substrate built from scratch: a
//! little-endian, length-prefixed binary format exposed through [`serde`]'s
//! `Serializer`/`Deserializer` traits, so any `serde`-enabled type can cross
//! a choreography's `comm`/`multicast`/`broadcast` operators.
//!
//! The format is *not* self-describing: both endpoints of a communication in
//! a choreography statically agree on the type being sent (that is the whole
//! point of located values), so tags are only written where the data demands
//! them (enum variants, `Option`, sequence lengths).
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let point = (42u32, String::from("hello"), vec![1u8, 2, 3]);
//! let bytes = chorus_wire::to_bytes(&point)?;
//! let back: (u32, String, Vec<u8>) = chorus_wire::from_bytes(&bytes)?;
//! assert_eq!(point, back);
//! # Ok(())
//! # }
//! ```

mod control;
mod de;
mod envelope;
mod error;
mod ser;

pub use control::{
    data_frame_wire_len, data_header, ControlFrame, LinkFrame, CONTROL_MAX_LEN,
    DATA_FRAME_OVERHEAD, DATA_HEADER_LEN, LINK_ACK, LINK_DATA, LINK_PING, LINK_PONG, LINK_RESUME,
};
pub use de::{from_bytes, Deserializer};
pub use envelope::{Envelope, ENVELOPE_HEADER_LEN};
pub use error::WireError;
pub use ser::{to_bytes, to_bytes_into, Serializer};

// Re-exported so every crate in the workspace shares one buffer type
// for payloads without depending on the `bytes` shim directly.
pub use bytes::{BufMut, Bytes, BytesMut};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + serde::de::DeserializeOwned,
    {
        let bytes = to_bytes(value).expect("serialize");
        from_bytes(&bytes).expect("deserialize")
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Request {
        Put(String, String),
        Get(String),
        Stop,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        id: u64,
        tags: Vec<String>,
        inner: Option<Box<Nested>>,
        table: BTreeMap<String, i32>,
    }

    #[test]
    fn primitives_round_trip() {
        assert!(round_trip(&true));
        assert!(!round_trip(&false));
        assert_eq!(round_trip(&0u8), 0u8);
        assert_eq!(round_trip(&255u8), 255u8);
        assert_eq!(round_trip(&-1i8), -1i8);
        assert_eq!(round_trip(&i16::MIN), i16::MIN);
        assert_eq!(round_trip(&u16::MAX), u16::MAX);
        assert_eq!(round_trip(&i32::MIN), i32::MIN);
        assert_eq!(round_trip(&u32::MAX), u32::MAX);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&i128::MIN), i128::MIN);
        assert_eq!(round_trip(&u128::MAX), u128::MAX);
        assert_eq!(round_trip(&'q'), 'q');
        assert_eq!(round_trip(&'🦀'), '🦀');
    }

    #[test]
    fn floats_round_trip() {
        assert_eq!(round_trip(&1.5f32), 1.5f32);
        assert_eq!(round_trip(&-2.25f64), -2.25f64);
        assert!(round_trip(&f64::NAN).is_nan());
        assert_eq!(round_trip(&f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn strings_round_trip() {
        assert_eq!(round_trip(&String::new()), String::new());
        assert_eq!(round_trip(&String::from("héllo wörld")), "héllo wörld");
        let long = "x".repeat(10_000);
        assert_eq!(round_trip(&long), long);
    }

    #[test]
    fn options_round_trip() {
        assert_eq!(round_trip(&Option::<u32>::None), None);
        assert_eq!(round_trip(&Some(7u32)), Some(7u32));
        assert_eq!(round_trip(&Some(Some(7u32))), Some(Some(7u32)));
        assert_eq!(round_trip(&Some(Option::<u32>::None)), Some(None));
    }

    #[test]
    fn unit_and_tuples_round_trip() {
        round_trip(&());
        assert_eq!(round_trip(&(1u8,)), (1u8,));
        assert_eq!(round_trip(&(1u8, 2u16, 3u32)), (1u8, 2u16, 3u32));
    }

    #[test]
    fn sequences_round_trip() {
        assert_eq!(round_trip(&Vec::<u32>::new()), Vec::<u32>::new());
        assert_eq!(round_trip(&vec![1u32, 2, 3]), vec![1u32, 2, 3]);
        let nested = vec![vec![1u8], vec![], vec![2, 3]];
        assert_eq!(round_trip(&nested), nested);
    }

    #[test]
    fn maps_round_trip() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        assert_eq!(round_trip(&m), m);
        let mut bt = BTreeMap::new();
        bt.insert(5u64, vec![true, false]);
        assert_eq!(round_trip(&bt), bt);
    }

    #[test]
    fn enums_round_trip() {
        assert_eq!(
            round_trip(&Request::Put("k".into(), "v".into())),
            Request::Put("k".into(), "v".into())
        );
        assert_eq!(round_trip(&Request::Get("k".into())), Request::Get("k".into()));
        assert_eq!(round_trip(&Request::Stop), Request::Stop);
    }

    #[test]
    fn structs_round_trip() {
        let value = Nested {
            id: 9,
            tags: vec!["one".into(), "two".into()],
            inner: Some(Box::new(Nested {
                id: 10,
                tags: vec![],
                inner: None,
                table: BTreeMap::new(),
            })),
            table: {
                let mut t = BTreeMap::new();
                t.insert("x".into(), -4);
                t
            },
        };
        assert_eq!(round_trip(&value), value);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&3u32).unwrap();
        bytes.push(0xFF);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes(_)));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&0xDEADBEEFu32).unwrap();
        let err = from_bytes::<u32>(&bytes[..2]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof));
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let err = from_bytes::<bool>(&[7]).unwrap_err();
        assert!(matches!(err, WireError::InvalidBool(7)));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        // length 2, bytes [0xFF, 0xFF]
        let bytes = vec![2, 0, 0, 0, 0xFF, 0xFF];
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn invalid_char_is_an_error() {
        let bytes = 0xD800u32.to_le_bytes().to_vec(); // lone surrogate
        assert!(from_bytes::<char>(&bytes).is_err());
    }

    #[test]
    fn oversized_length_is_an_error() {
        // A sequence claiming u32::MAX elements with no payload.
        let bytes = vec![0xFF, 0xFF, 0xFF, 0xFF];
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn error_display_is_nonempty() {
        let err = from_bytes::<bool>(&[]).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
