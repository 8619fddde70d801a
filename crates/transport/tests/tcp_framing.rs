//! TCP framing robustness: the reader must reassemble frames
//! identically no matter how the sender's bytes are sliced across
//! `write` calls.
//!
//! A real peer hands the kernel each batch as one vectored write (the
//! headers from one buffer, every payload as its own uncopied slice),
//! but the *network* owes us nothing: TCP may deliver any byte-level
//! segmentation. These tests connect a raw socket, perform the
//! handshake, and drip envelope frames through chunk sizes
//! N ∈ {1, 2, 7, 4096}, asserting the demultiplexed frames match what a
//! single contiguous write produces.
//!
//! The hello itself is input from a socket nobody has vouched for: the
//! last test pins that the acceptor closes every malformed one without
//! disturbing an established link.

use chorus_core::SessionTransport as _;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

chorus_core::locations! { N0, N1 }
type Duo = chorus_core::LocationSet!(N0, N1);

/// Payloads sized to straddle every chunk boundary in the matrix,
/// including empty and one crossing the 4096 chunk size.
fn test_frames() -> Vec<Envelope> {
    vec![
        Envelope::new(1, 0, b"".to_vec()),
        Envelope::new(1, 1, b"short".to_vec()),
        Envelope::new(2, 0, (0..=255u8).collect::<Vec<u8>>()),
        Envelope::new(1, 2, vec![0xA5; 5000]),
    ]
}

/// Encodes `frame` exactly as `TcpTransport` puts it on the wire: a
/// `u32` little-endian outer length, then the link-frame data header
/// (tag + per-link sequence), then the envelope bytes.
fn wire_bytes(link_seq: u64, frame: &Envelope) -> Vec<u8> {
    let inner = frame.encode();
    let mut out = ((chorus_wire::DATA_HEADER_LEN + inner.len()) as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&chorus_wire::data_header(link_seq));
    out.extend_from_slice(&inner);
    out
}

/// The link-protocol version byte every hello starts with.
const LINK_VERSION: u8 = 1;

/// Connects a raw socket to `addr` and writes `declared_len` as the
/// hello's length prefix followed by `body`.
fn raw_hello(addr: SocketAddr, declared_len: u32, body: &[u8]) -> TcpStream {
    // The listener is bound before `bind` returns, so a single connect
    // suffices (the OS backlog holds it until the acceptor thread runs).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&declared_len.to_le_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
    stream
}

/// Binds a receiver for `N1`, connects a raw socket posing as `N0`, and
/// returns both.
fn receiver_and_raw_sender() -> (TcpTransport<Duo, N1>, TcpStream) {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();
    let receiver = TcpTransport::bind(N1, config).unwrap();
    // Handshake: a length-prefixed frame carrying the link version and
    // the sender's name. The receiver answers with a resume cursor and
    // later acks, which this raw socket never reads (they are a few
    // bytes; the socket buffer holds them).
    let hello = [&[LINK_VERSION][..], b"N0"].concat();
    let stream = raw_hello(addrs[1], hello.len() as u32, &hello);
    (receiver, stream)
}

/// Writes `bytes` in `chunk`-sized slices, flushing after every slice
/// so each becomes its own TCP segment (as far as loopback allows).
fn write_chunked(stream: &mut TcpStream, bytes: &[u8], chunk: usize) {
    for piece in bytes.chunks(chunk) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
    }
}

#[test]
fn chunked_writes_reassemble_identically_to_a_single_write() {
    // The reference: every frame delivered from one contiguous write.
    let reference: Vec<Envelope> = {
        let (receiver, mut stream) = receiver_and_raw_sender();
        let mut all = Vec::new();
        for (seq, frame) in test_frames().iter().enumerate() {
            all.extend_from_slice(&wire_bytes(seq as u64, frame));
        }
        stream.write_all(&all).unwrap();
        stream.flush().unwrap();
        test_frames().iter().map(|f| receiver.receive_frame(f.session, "N0").unwrap()).collect()
    };
    assert_eq!(reference, test_frames(), "single-write delivery is the baseline");

    for chunk in [1usize, 2, 7, 4096] {
        let (receiver, mut stream) = receiver_and_raw_sender();
        for (seq, frame) in test_frames().iter().enumerate() {
            write_chunked(&mut stream, &wire_bytes(seq as u64, frame), chunk);
        }
        let got: Vec<Envelope> = test_frames()
            .iter()
            .map(|f| receiver.receive_frame(f.session, "N0").unwrap())
            .collect();
        assert_eq!(
            got, reference,
            "chunk size {chunk}: reassembly must match the single-write delivery"
        );
    }
}

#[test]
fn chunk_boundaries_inside_the_length_prefix_are_harmless() {
    // One frame whose 4-byte outer length, 20-byte header, and payload
    // all straddle 3-byte chunks — every prefix field gets split.
    let (receiver, mut stream) = receiver_and_raw_sender();
    let frame = Envelope::new(7, 0, b"boundary-crossing payload".to_vec());
    write_chunked(&mut stream, &wire_bytes(0, &frame), 3);
    assert_eq!(receiver.receive_frame(7, "N0").unwrap(), frame);
}

#[test]
fn large_payloads_cross_the_two_slice_send_path_intact() {
    // A payload leaves a real sender as its own slice of a vectored
    // write (header buffer + uncopied payload), which a large one makes
    // the kernel split; whatever segmentation TCP applies, the peer
    // must reassemble the exact bytes. 64 KiB + 3 keeps the length odd
    // relative to every buffer size involved.
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();
    let receiver = TcpTransport::bind(N1, config.clone()).unwrap();
    let sender = TcpTransport::bind(N0, config).unwrap();

    let payload: Vec<u8> = (0..65_539u32).map(|i| (i % 251) as u8).collect();
    let frame = Envelope::new(3, 0, payload.clone());
    sender.send_frame("N1", frame.clone()).unwrap();
    // A small frame behind the large one catches any residue the
    // two-slice path might leave in the stream.
    let chaser = Envelope::new(3, 1, b"chaser".to_vec());
    sender.send_frame("N1", chaser.clone()).unwrap();

    let got = receiver.receive_frame(3, "N0").unwrap();
    assert_eq!(got.payload, payload.as_slice());
    assert_eq!(got, frame);
    assert_eq!(receiver.receive_frame(3, "N0").unwrap(), chaser);
}

#[test]
fn a_large_frame_dripped_byte_wise_still_reassembles() {
    // The reader's pooled-scratch path under the most adversarial
    // segmentation: a 20 KiB frame arriving in 4096-byte chunks, then
    // the same frame arriving byte-by-byte on a fresh connection.
    let payload: Vec<u8> = (0..20_480u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
    let frame = Envelope::new(9, 0, payload);

    for chunk in [4096usize, 1] {
        let (receiver, mut stream) = receiver_and_raw_sender();
        write_chunked(&mut stream, &wire_bytes(0, &frame), chunk);
        assert_eq!(
            receiver.receive_frame(9, "N0").unwrap(),
            frame,
            "chunk size {chunk} corrupted a large frame"
        );
    }
}

/// Whether the acceptor hung up on `stream` (end-of-stream or reset)
/// within five seconds, having written nothing to it.
fn closed_by_acceptor(mut stream: TcpStream) -> bool {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    }
}

#[test]
fn malformed_hellos_are_closed_and_leave_an_established_link_alone() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        // The silent connector below is cut off after the handshake
        // timeout, which follows the heartbeat down to 500ms.
        .heartbeat(Duration::from_millis(50))
        .build::<Duo>()
        .unwrap();
    let receiver = TcpTransport::bind(N1, config.clone()).unwrap();
    let sender = TcpTransport::bind(N0, config).unwrap();
    sender.send_frame("N1", Envelope::new(1, 0, b"before".to_vec())).unwrap();
    assert_eq!(receiver.receive_frame(1, "N0").unwrap().payload, b"before"[..]);

    let hello = |version: u8, name: &[u8]| [&[version][..], name].concat();
    let cases: Vec<(&str, u32, Vec<u8>)> = vec![
        ("a declared length of 4 GiB", u32::MAX, hello(LINK_VERSION, b"N0")),
        ("a declared length one past the longest name", 4, hello(LINK_VERSION, b"N0")),
        ("a version that is not the link version", 3, hello(0, b"N0")),
        ("a name outside the census", 3, hello(LINK_VERSION, b"N9")),
        ("the receiver's own name", 3, hello(LINK_VERSION, b"N1")),
        ("a name that is not UTF-8", 3, hello(LINK_VERSION, &[0xff, 0xfe])),
        ("an empty hello", 0, Vec::new()),
        ("no hello at all", 3, Vec::new()),
    ];
    for (what, declared_len, body) in cases {
        let stream = raw_hello(addrs[1], declared_len, &body);
        assert!(closed_by_acceptor(stream), "{what} was not closed by the acceptor");
    }

    for seq in 1..4u64 {
        sender.send_frame("N1", Envelope::new(1, seq, seq.to_le_bytes().to_vec())).unwrap();
    }
    for seq in 1..4u64 {
        let got = receiver.receive_frame(1, "N0").unwrap();
        assert_eq!((got.seq, &got.payload[..]), (seq, &seq.to_le_bytes()[..]));
    }
    let stats = sender.link_stats();
    assert_eq!((stats.reconnects, stats.replayed_frames), (0, 0), "the link was disturbed");
}
