//! Frame reassembly on the peer plane: [`FrameBuf`] is what a non-blocking
//! peer socket's bytes go through, arriving cut wherever the kernel cut
//! them. Whatever the cuts, it must hand out exactly what the blocking
//! [`read_frame`] yields over the same bytes — and on an over-cap prefix or
//! a stream cut mid-frame, stop where it stops, with nothing partial
//! handed out first.

use std::io::ErrorKind;

use moara_wire::{append_frame, read_frame, FrameBuf, MAX_FRAME};
use proptest::prelude::*;

/// The reference: blocking reads over the whole stream. True when it
/// ended on a length prefix over [`MAX_FRAME`].
fn blocking(stream: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let (mut r, mut frames) = (stream, Vec::new());
    loop {
        match read_frame(&mut r) {
            Ok(Some(payload)) => frames.push(payload),
            // A clean end, or one inside a prefix or a payload.
            Ok(None) => return (frames, false),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return (frames, false),
            Err(e) if e.kind() == ErrorKind::InvalidData => return (frames, true),
            Err(e) => panic!("unexpected {e}"),
        }
    }
}

/// The same stream through a [`FrameBuf`], fed `cuts[i]` bytes at a time
/// (cycled) and drained after every feed, as the transport does per read.
fn reassembled(stream: &[u8], cuts: &[usize]) -> (Vec<Vec<u8>>, bool) {
    let (mut buf, mut frames) = (FrameBuf::default(), Vec::new());
    let mut rest = stream;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(cut.min(rest.len()));
        rest = tail;
        buf.extend(chunk);
        loop {
            match buf.next_frame() {
                Ok(Some(payload)) => frames.push(payload.to_vec()),
                Ok(None) => break,
                // The connection is closed here: nothing after is read.
                Err(e) if e.kind() == ErrorKind::InvalidData => return (frames, true),
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }
    (frames, false)
}

fn stream_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for p in payloads {
        append_frame(&mut stream, |out| out.extend_from_slice(p)).unwrap();
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid frames (empty and runt ones included), any chunking — 1-byte
    /// reads and chunks that end inside a prefix among them.
    #[test]
    fn any_chunking_reassembles_what_read_frame_yields(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..70), 0..12),
        cuts in proptest::collection::vec(1usize..23, 1..8),
    ) {
        let stream = stream_of(&payloads);
        let got = reassembled(&stream, &cuts);
        prop_assert_eq!(&got, &(payloads.clone(), false));
        prop_assert_eq!(got, blocking(&stream));
        // One byte at a time is the hardest chunking of all.
        prop_assert_eq!(reassembled(&stream, &[1]).0, payloads);
    }

    /// A stream cut anywhere delivers the frames that were whole and
    /// nothing of the one that was not.
    #[test]
    fn a_mid_frame_close_delivers_nothing_partial(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..70), 1..12),
        cuts in proptest::collection::vec(1usize..23, 1..8),
        keep in 0usize..1000,
    ) {
        let mut stream = stream_of(&payloads);
        stream.truncate(keep % stream.len());
        let got = reassembled(&stream, &cuts);
        prop_assert!(payloads.starts_with(&got.0));
        prop_assert_eq!(got, blocking(&stream));
    }

    /// A prefix over the cap ends the connection the moment its four
    /// bytes are in, whatever follows, after the frames before it.
    #[test]
    fn an_over_cap_prefix_ends_the_stream_where_read_frame_does(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..70), 0..6),
        over in 1u32..1000,
        tail in proptest::collection::vec(any::<u8>(), 0..40),
        cuts in proptest::collection::vec(1usize..23, 1..8),
    ) {
        let mut stream = stream_of(&payloads);
        stream.extend_from_slice(&(MAX_FRAME as u32 + over).to_le_bytes());
        stream.extend_from_slice(&tail);
        let got = reassembled(&stream, &cuts);
        prop_assert_eq!(&got, &(payloads, true));
        prop_assert_eq!(got, blocking(&stream));
    }
}
