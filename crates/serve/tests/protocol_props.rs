//! Property tests driving hostile inputs through the wire protocol:
//! random bytes, truncated frames, oversized length prefixes, unsupported
//! version bytes, and reserved flag bits. The invariant throughout is
//! **no panic, typed error** — a byte stream can make the decoder
//! refuse, never crash or mis-parse.

use fluxcomp_serve::protocol::{
    read_frame_poll, write_frame, FieldSpec, FixRequest, FixResponse, PollRead, ProtocolError,
    Status, MAX_FRAME, REQUEST_LEN_VECTOR, REQUEST_TAG, RESPONSE_LEN, WIRE_VERSION,
};
use proptest::prelude::*;
use std::io::Cursor;

/// A syntactically valid request frame (payload only) to mutate.
fn valid_request_payload(heading: f64, version: u8) -> Vec<u8> {
    let request = FixRequest {
        id: 77,
        seed: 5,
        deadline_ms: 250,
        no_cache: true,
        field: FieldSpec::HeadingTruth(heading),
    };
    let mut buf = [0u8; REQUEST_LEN_VECTOR];
    let len = request.encode_payload(&mut buf);
    let mut payload = buf[..len].to_vec();
    payload[1] = version;
    payload
}

proptest! {
    /// Arbitrary bytes through the frame reader: every outcome is a
    /// clean frame, a clean EOF, or a typed io error — never a panic,
    /// and never a frame longer than MAX_FRAME.
    #[test]
    fn frame_reader_never_panics_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut cursor = Cursor::new(bytes);
        let mut buf = Vec::new();
        match read_frame_poll(&mut cursor, &mut buf, &|| false) {
            Ok(PollRead::Frame(len)) => prop_assert!(len <= MAX_FRAME),
            Ok(PollRead::Eof) => {}
            Ok(PollRead::Stopped) => prop_assert!(false, "a cursor never times out"),
            Err(_) => {}
        }
    }

    /// Arbitrary bytes through both payload decoders: no panic; on
    /// success the decoded request re-encodes to the same bytes.
    #[test]
    fn payload_decoders_never_panic_and_accepted_requests_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..64)
    ) {
        if let Ok(request) = FixRequest::decode_payload(&bytes) {
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = request.encode_payload(&mut buf);
            prop_assert_eq!(&buf[..len], &bytes[..len]);
        }
        let _ = FixResponse::decode_payload(&bytes);
    }

    /// Every truncation of a valid frame fails with UnexpectedEof (or
    /// reports a short payload at decode) — never a panic, never a
    /// bogus accepted fix.
    #[test]
    fn truncated_frames_fail_typed(cut in 0usize..24, heading in 0.0f64..360.0) {
        let payload = valid_request_payload(heading, WIRE_VERSION);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        prop_assume!(cut < framed.len());
        let mut cursor = Cursor::new(&framed[..cut]);
        let mut buf = Vec::new();
        match read_frame_poll(&mut cursor, &mut buf, &|| false) {
            Ok(PollRead::Eof) => prop_assert_eq!(cut, 0),
            Ok(PollRead::Frame(_)) => prop_assert!(false, "truncated frame accepted"),
            Ok(PollRead::Stopped) => prop_assert!(false, "a cursor never times out"),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        }
    }

    /// A length prefix beyond MAX_FRAME is refused before any read of
    /// the (possibly attacker-sized) body: typed InvalidData carrying
    /// ProtocolError::FrameTooLarge.
    #[test]
    fn oversized_length_prefix_is_refused(len in (MAX_FRAME as u32 + 1)..u32::MAX) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = Cursor::new(bytes);
        let mut buf = Vec::new();
        let err = read_frame_poll(&mut cursor, &mut buf, &|| false)
            .expect_err("oversized frame accepted");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let inner = err.into_inner().expect("typed inner error");
        let proto = inner.downcast::<ProtocolError>().expect("ProtocolError");
        prop_assert_eq!(*proto, ProtocolError::FrameTooLarge { got: len as usize });
    }

    /// Every version byte other than WIRE_VERSION — older and newer
    /// alike — is a typed BadVersion from both payload decoders, not a
    /// guess at the layout.
    #[test]
    fn unsupported_versions_are_rejected_typed(version in any::<u8>()) {
        prop_assume!(version != WIRE_VERSION);
        let payload = valid_request_payload(123.0, version);
        prop_assert_eq!(
            FixRequest::decode_payload(&payload),
            Err(ProtocolError::BadVersion { got: version })
        );
        let mut response = [0u8; RESPONSE_LEN];
        FixResponse::failure(77, Status::Overloaded).encode_payload(&mut response);
        response[1] = version;
        prop_assert_eq!(
            FixResponse::decode_payload(&response),
            Err(ProtocolError::BadVersion { got: version })
        );
    }

    /// Reserved request flag bits (anything beyond FIELD_VECTOR and
    /// NO_CACHE) are a typed BadFlags.
    #[test]
    fn reserved_flag_bits_are_rejected_typed(bit in 2u32..16) {
        let mut payload = valid_request_payload(45.0, WIRE_VERSION);
        let mut flags = u16::from_le_bytes([payload[2], payload[3]]);
        flags |= 1 << bit;
        payload[2..4].copy_from_slice(&flags.to_le_bytes());
        prop_assert_eq!(
            FixRequest::decode_payload(&payload),
            Err(ProtocolError::BadFlags { got: flags })
        );
    }

    /// A corrupted tag byte is a typed BadTag regardless of the rest of
    /// the payload.
    #[test]
    fn corrupted_tag_is_rejected_typed(tag in any::<u8>(), heading in 0.0f64..360.0) {
        prop_assume!(tag != REQUEST_TAG);
        let mut payload = valid_request_payload(heading, WIRE_VERSION);
        payload[0] = tag;
        prop_assert_eq!(
            FixRequest::decode_payload(&payload),
            Err(ProtocolError::BadTag { got: tag })
        );
    }
}
