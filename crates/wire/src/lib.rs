//! # moara-wire
//!
//! The binary wire codec shared by every Moara crate: a small,
//! dependency-free replacement for `serde` + `bincode` (the build
//! environment has no crates.io access, so derives are not an option).
//!
//! Layout rules, chosen to match what `bincode` with fixed-int encoding
//! would produce:
//!
//! * integers are fixed-width little-endian;
//! * `bool` is one byte (`0`/`1`);
//! * `f64` is its IEEE-754 bits, little-endian;
//! * `String`/`Vec<T>` are a `u32` little-endian element count followed by
//!   the elements;
//! * `Option<T>` is a one-byte tag followed by the payload if present;
//! * enums are a one-byte variant tag followed by the variant's fields.
//!
//! A type writes its layout once, in [`Wire::encode`], against a
//! [`Sink`]. [`Wire::encoded_len`] is that same encoder run into a byte
//! counter (no allocation), which the simulator uses for honest
//! bandwidth accounting — `MoaraMsg::size_bytes` is
//! [`peer_framed_len`], exactly what the TCP transport puts on a socket.
//!
//! Frames on a stream transport are `u32` little-endian payload length,
//! then the payload ([`append_frame`] / [`read_frame`]).

use std::io::{self, Read, Write};

/// Bytes of stream framing added per message: the `u32` length prefix.
pub const FRAME_HDR: usize = 4;

/// Upper bound accepted by [`read_frame`]; guards against corrupt length
/// prefixes allocating gigabytes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// A decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Eof,
    /// A tag or length field held an impossible value.
    Invalid(&'static str),
    /// Decoding succeeded but left unconsumed bytes (top level only).
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::Invalid(what) => write!(f, "invalid wire data: {what}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where [`Wire::encode`] writes: a byte buffer, or the counter behind
/// [`Wire::encoded_len`].
pub trait Sink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);
    /// Appends `bytes`.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

// The four methods are `#[inline]`: the workspace builds without LTO, and
// a cross-crate call per byte would cost more than the byte.
impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// A [`Sink`] that keeps only the number of bytes written.
struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Binary encoding to/from the Moara wire format.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut impl Sink);

    /// Decodes one value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] on truncation, [`WireError::Invalid`] on bad
    /// tags/lengths.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact number of bytes [`Wire::encode`] will append: the encoder
    /// run into a byte counter, so the two agree by construction. It
    /// feeds bandwidth accounting on hot paths and does not allocate.
    fn encoded_len(&self) -> usize {
        let mut n = Counter(0);
        self.encode(&mut n);
        n.0
    }

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Everything [`Wire::decode`] returns, plus [`WireError::Trailing`]
    /// when bytes remain.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(v)
        } else {
            Err(WireError::Trailing(buf.len()))
        }
    }
}

/// Implements [`Wire`] for a struct as its fields in the order listed,
/// decoded in that order too: `wire_struct!(Member: node, addr);`.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident: $($field:ident),* $(,)?) => {
        impl $crate::Wire for $ty {
            fn encode(&self, out: &mut impl $crate::Sink) {
                $($crate::Wire::encode(&self.$field, out);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($ty { $($field: $crate::Wire::decode(buf)?),* })
            }
        }
    };
}

/// Implements [`Wire`] for an enum: a one-byte tag, then the variant's
/// fields in the order listed. Each variant is `tag => Unit`,
/// `tag => Tuple(a, b)` (names for the fields, in order) or
/// `tag => Struct { x, y }`; an unlisted tag decodes to
/// `WireError::Invalid("<Type> tag")`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $var:ident $(($($pos:ident),*))? $({$($named:ident),*})?),* $(,)?
    }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, out: &mut impl $crate::Sink) {
                match self {
                    $($ty::$var $(($($pos),*))? $({$($named),*})? => {
                        out.push($tag);
                        $($($crate::Wire::encode($pos, out);)*)?
                        $($($crate::Wire::encode($named, out);)*)?
                    })*
                }
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok(match <u8 as $crate::Wire>::decode(buf)? {
                    $($tag => $ty::$var
                        $(($({
                            let $pos = $crate::Wire::decode(buf)?;
                            $pos
                        }),*))?
                        $({$($named: $crate::Wire::decode(buf)?),*})?,)*
                    _ => return Err($crate::WireError::Invalid(concat!(stringify!($ty), " tag"))),
                })
            }
        }
    };
}

/// Takes `n` bytes off the front of `buf`.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Eof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut impl Sink) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let raw = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized take")))
            }
        }
    )*};
}
impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for usize {
    /// `usize` travels as `u64` so 32- and 64-bit peers interoperate.
    fn encode(&self, out: &mut impl Sink) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut impl Sink) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut impl Sink) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(buf)?))
    }
}

fn encode_len_prefix(len: usize, out: &mut impl Sink) {
    u32::try_from(len)
        .expect("collection too large for wire format")
        .encode(out);
}

fn decode_len_prefix(buf: &mut &[u8]) -> Result<usize, WireError> {
    Ok(u32::decode(buf)? as usize)
}

impl Wire for String {
    fn encode(&self, out: &mut impl Sink) {
        encode_len_prefix(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = decode_len_prefix(buf)?;
        let raw = take(buf, n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Invalid("utf-8"))
    }
}

/// Shared text (the engine's predicate keys): the same bytes as `String`.
impl Wire for std::sync::Arc<str> {
    fn encode(&self, out: &mut impl Sink) {
        encode_len_prefix(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = decode_len_prefix(buf)?;
        let raw = take(buf, n)?;
        std::str::from_utf8(raw)
            .map(Into::into)
            .map_err(|_| WireError::Invalid("utf-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut impl Sink) {
        encode_len_prefix(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = decode_len_prefix(buf)?;
        // Cap the pre-allocation: `n` is attacker-controlled on a socket.
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut impl Sink) {
        (**self).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(buf)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut impl Sink) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

// ----- stream framing ----------------------------------------------------

/// Reads one length-prefixed frame. `Ok(None)` means the stream closed
/// cleanly at a frame boundary.
///
/// # Errors
///
/// I/O errors, mid-frame EOF (`UnexpectedEof`), and length prefixes over
/// [`MAX_FRAME`] (`InvalidData`).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_raw = [0u8; FRAME_HDR];
    let mut filled = 0;
    while filled < FRAME_HDR {
        match r.read(&mut len_raw[filled..])? {
            0 if filled == 0 => return Ok(None), // clean close
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_raw) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length over MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// [`read_frame`] for a non-blocking socket: bytes go in as the stream
/// yields them, cut anywhere, and whole frames come out. The buffer grows
/// only with bytes actually received — a length prefix reserves nothing,
/// so a peer that sends a [`MAX_FRAME`] prefix and stops costs 4 bytes.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the first frame not yet handed out.
    pos: usize,
}

impl FrameBuf {
    /// Appends bytes read from the stream (frames already handed out
    /// leave the buffer first).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        if self.buf.is_empty() && self.buf.capacity() > 64 * 1024 {
            // One large frame went through: do not keep its megabytes.
            self.buf = Vec::new();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload; `Ok(None)` until all of it has
    /// arrived.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a length prefix over [`MAX_FRAME`], as soon as
    /// the prefix is in: the stream cannot be resynchronised, close it.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let rest = &self.buf[self.pos..];
        let Some(prefix) = rest.first_chunk::<FRAME_HDR>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length over MAX_FRAME",
            ));
        }
        let Some(payload) = rest.get(FRAME_HDR..FRAME_HDR + len) else {
            return Ok(None);
        };
        self.pos += FRAME_HDR + len;
        Ok(Some(payload))
    }
}

/// Appends one whole frame — length prefix and payload — to a buffer
/// that may already hold frames: `encode` appends the payload after a
/// reserved prefix, which is filled in afterwards. A sender then needs
/// one `write_all` per frame (or per batch of frames), which on a
/// `TCP_NODELAY` socket is one syscall and one segment where
/// prefix-then-payload would be two of each.
///
/// # Errors
///
/// `InvalidInput` when the payload does not fit the `u32` prefix.
pub fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HDR]);
    encode(out);
    let len = u32::try_from(out.len() - at - FRAME_HDR)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    out[at..at + FRAME_HDR].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encodes `msg` and writes it as one frame, with one `write_all`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_msg<M: Wire>(w: &mut impl Write, msg: &M) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HDR + msg.encoded_len());
    append_frame(&mut frame, |out| msg.encode(out))?;
    w.write_all(&frame)
}

/// Bytes of sender identification inside every peer-plane frame (the
/// `u32` NodeId the TCP transport prepends to the payload).
pub const SENDER_HDR: usize = 4;

/// Total bytes a *peer-to-peer message* occupies on the TCP transport:
/// frame header, sender id, payload. `Message::size_bytes` impls should
/// use this so simulator bandwidth figures equal real socket bytes.
pub fn peer_framed_len<M: Wire>(msg: &M) -> usize {
    FRAME_HDR + SENDER_HDR + msg.encoded_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(
            bytes.len(),
            v.encoded_len(),
            "encoded_len mismatch for {v:?}"
        );
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(513u16);
        roundtrip(70_000u32);
        roundtrip(u64::MAX);
        roundtrip(-5i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(String::from("hello wörld"));
        roundtrip(String::new());
        roundtrip(std::sync::Arc::<str>::from("hello wörld"));
        assert_eq!(
            std::sync::Arc::<str>::from("k=1").to_bytes(),
            String::from("k=1").to_bytes()
        );
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(Box::new(9i64));
        roundtrip((3u8, String::from("x")));
        roundtrip(vec![(String::from("k"), 1i64), (String::from("v"), -2)]);
    }

    #[test]
    fn nan_bits_are_preserved() {
        let v = f64::from_bits(0x7ff8_0000_0000_1234);
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn truncation_and_bad_tags_error() {
        assert_eq!(u64::from_bytes(&[1, 2, 3]), Err(WireError::Eof));
        assert_eq!(bool::from_bytes(&[7]), Err(WireError::Invalid("bool tag")));
        assert_eq!(
            Option::<u8>::from_bytes(&[9]),
            Err(WireError::Invalid("option tag"))
        );
        // Vec claims 5 elements but provides 1.
        let mut bytes = Vec::new();
        encode_len_prefix(5, &mut bytes);
        1u64.encode(&mut bytes);
        assert_eq!(Vec::<u64>::from_bytes(&bytes), Err(WireError::Eof));
        // Trailing garbage is rejected at top level.
        assert_eq!(u8::from_bytes(&[1, 2]), Err(WireError::Trailing(1)));
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut stream = Vec::new();
        write_msg(&mut stream, &String::from("abc")).unwrap();
        write_msg(&mut stream, &42u64).unwrap();
        let mut r = stream.as_slice();
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(String::from_bytes(&f1).unwrap(), "abc");
        assert_eq!(f1.len(), String::from("abc").encoded_len());
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(u64::from_bytes(&f2).unwrap(), 42);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut stream = Vec::new();
        write_msg(&mut stream, &12345u64).unwrap();
        stream.truncate(stream.len() - 2);
        let mut r = stream.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
