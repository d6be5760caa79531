//! The wire protocol: a small length-prefixed binary framing.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by exactly that many payload bytes. Payloads are fixed
//! layouts (no varints, no optional fields) so encode/decode are a
//! handful of `to_le_bytes`/`from_le_bytes` calls into stack buffers —
//! the steady-state server writes responses without allocating.
//!
//! ## Request payload (`tag = 0x01`)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | tag (`0x01`) |
//! | 1      | 1    | protocol version ([`WIRE_VERSION`]) |
//! | 2      | 2    | flags (`u16` LE): bit 0 = field-vector, bit 1 = no-cache |
//! | 4      | 8    | request id (`u64` LE, echoed in the response) |
//! | 12     | 8    | noise seed (`u64` LE) |
//! | 20     | 4    | deadline (`u32` LE, milliseconds; 0 = none) |
//! | 24     | 8/16 | heading truth (`f64` LE) **or** `h_x`,`h_y` (`f64` LE ×2) |
//!
//! Unknown flag bits (reserved for future versions) are rejected with a
//! typed [`ProtocolError::BadFlags`], and any version byte other than
//! [`WIRE_VERSION`] with a typed [`ProtocolError::BadVersion`] — a client
//! speaking another version gets a clean `BadRequest`, never a silently
//! misread request.
//!
//! ## Response payload (`tag = 0x02`)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | tag (`0x02`) |
//! | 1      | 1    | protocol version ([`WIRE_VERSION`]) |
//! | 2      | 1    | status (`u8`, see [`Status`]) |
//! | 3      | 1    | flags: bit 0 = cache hit, bit 1 = V-I clipped, bits 2–3 = fix quality |
//! | 4      | 8    | request id (`u64` LE) |
//! | 12     | 8    | heading (`f64` LE, degrees in `[0, 360)`) |
//! | 20     | 8    | X duty cycle (`f64` LE) |
//! | 28     | 8    | Y duty cycle (`f64` LE) |
//! | 36     | 8    | X counter output (`i64` LE) |
//! | 44     | 8    | Y counter output (`i64` LE) |
//!
//! Failure responses ([`Status::Overloaded`] and friends) carry zeros in
//! the measurement fields. [`Status::Unmeasurable`] is the one
//! exception: the fix ran but failed its health checks, and the heading
//! field carries the worker's held last-good heading (duties/counts
//! zero, quality [`FixQuality::Invalid`]).

use fluxcomp_compass::{BuildError, FixQuality};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// The one protocol version spoken and accepted by this crate.
pub const WIRE_VERSION: u8 = 2;

/// Request payload tag byte.
pub const REQUEST_TAG: u8 = 0x01;

/// Response payload tag byte.
pub const RESPONSE_TAG: u8 = 0x02;

/// Upper bound on an accepted frame payload, far above any legal frame —
/// a hostile or corrupt length prefix is rejected before any read of
/// that size is attempted.
pub const MAX_FRAME: usize = 1024;

/// Request flag: the payload carries an explicit `(h_x, h_y)` field
/// vector instead of a true heading.
pub const FLAG_FIELD_VECTOR: u16 = 1 << 0;

/// Request flag: bypass the server's fix cache (no lookup, no insert).
pub const FLAG_NO_CACHE: u16 = 1 << 1;

/// Response flag: the fix was served from the cache.
pub const RESP_FLAG_CACHE_HIT: u8 = 1 << 0;

/// Response flag: the V-I converter clipped on at least one axis.
pub const RESP_FLAG_CLIPPED: u8 = 1 << 1;

/// Bit offset of the fix-quality field in the response flags.
pub const RESP_QUALITY_SHIFT: u8 = 2;

/// Mask of the fix-quality field in the response flags:
/// `0` = Good, `1` = Degraded, `2` = Invalid.
pub const RESP_QUALITY_MASK: u8 = 0b11 << RESP_QUALITY_SHIFT;

/// Request flag bits this version understands; anything else is
/// [`ProtocolError::BadFlags`].
const REQUEST_FLAGS_KNOWN: u16 = FLAG_FIELD_VECTOR | FLAG_NO_CACHE;

const REQUEST_HEAD: usize = 24;

/// Encoded size of a heading-truth request payload.
pub const REQUEST_LEN_HEADING: usize = REQUEST_HEAD + 8;

/// Encoded size of a field-vector request payload.
pub const REQUEST_LEN_VECTOR: usize = REQUEST_HEAD + 16;

/// Encoded size of a response payload.
pub const RESPONSE_LEN: usize = 52;

/// What the client wants measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldSpec {
    /// A true platform heading in degrees; the server derives the axial
    /// fields from its configured magnetic environment.
    HeadingTruth(f64),
    /// Explicit axial fields in A/m, bypassing the earth-field model.
    FieldVector {
        /// X-axis external field (A/m).
        hx: f64,
        /// Y-axis external field (A/m).
        hy: f64,
    },
}

/// One fix request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixRequest {
    /// Client-chosen id echoed back in the response.
    pub id: u64,
    /// Noise seed for the measurement (same seed → bit-identical fix).
    pub seed: u64,
    /// Response deadline in milliseconds from arrival; 0 disables.
    pub deadline_ms: u32,
    /// Bypass the fix cache.
    pub no_cache: bool,
    /// What to measure.
    pub field: FieldSpec,
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u8)]
pub enum Status {
    /// The fix completed; measurement fields are valid.
    Ok = 0,
    /// The request queue was full; retry with backoff.
    Overloaded = 1,
    /// The request's deadline passed before the fix was computed.
    DeadlineExceeded = 2,
    /// The request frame was malformed.
    BadRequest = 3,
    /// The server is draining; no new requests are accepted.
    ShuttingDown = 4,
    /// The server's compass configuration was rejected.
    InvalidConfig = 5,
    /// The fix was computed but failed its health checks on both axes:
    /// the heading field carries the worker's held last-good heading
    /// with zero confidence. Never cached, never `Ok`-flagged.
    Unmeasurable = 6,
}

impl Status {
    /// Decodes the wire byte.
    pub fn from_wire(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::DeadlineExceeded,
            3 => Status::BadRequest,
            4 => Status::ShuttingDown,
            5 => Status::InvalidConfig,
            6 => Status::Unmeasurable,
            other => return Err(ProtocolError::BadStatus { got: other }),
        })
    }

    /// The wire status a server should report when its compass
    /// configuration fails to build. Every [`BuildError`] maps to
    /// [`Status::InvalidConfig`]; the typed cause stays server-side.
    pub fn for_build_error(_error: &BuildError) -> Self {
        Status::InvalidConfig
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::BadRequest => "bad-request",
            Status::ShuttingDown => "shutting-down",
            Status::InvalidConfig => "invalid-config",
            Status::Unmeasurable => "unmeasurable",
        };
        f.write_str(name)
    }
}

/// One fix response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixResponse {
    /// The request id this answers.
    pub id: u64,
    /// Outcome; measurement fields are zero unless [`Status::Ok`].
    pub status: Status,
    /// Served from the fix cache.
    pub cache_hit: bool,
    /// The V-I converter clipped on at least one axis.
    pub clipped: bool,
    /// Health verdict of the fix.
    pub quality: FixQuality,
    /// Heading in degrees, `[0, 360)`.
    pub heading: f64,
    /// X-axis detector duty cycle.
    pub duty_x: f64,
    /// Y-axis detector duty cycle.
    pub duty_y: f64,
    /// X-axis up/down counter output.
    pub count_x: i64,
    /// Y-axis up/down counter output.
    pub count_y: i64,
}

impl FixResponse {
    /// A non-`Ok` response carrying only the status and echoed id.
    pub fn failure(id: u64, status: Status) -> Self {
        Self {
            id,
            status,
            cache_hit: false,
            clipped: false,
            quality: FixQuality::Invalid,
            heading: 0.0,
            duty_x: 0.0,
            duty_y: 0.0,
            count_x: 0,
            count_y: 0,
        }
    }
}

/// Encodes a quality as its two wire bits (shifted into place).
fn quality_bits(quality: FixQuality) -> u8 {
    let value: u8 = match quality {
        FixQuality::Good => 0,
        FixQuality::Degraded => 1,
        FixQuality::Invalid => 2,
    };
    value << RESP_QUALITY_SHIFT
}

/// Decodes the two quality bits of a response flags byte.
fn quality_from_bits(flags: u8) -> Result<FixQuality, ProtocolError> {
    match (flags & RESP_QUALITY_MASK) >> RESP_QUALITY_SHIFT {
        0 => Ok(FixQuality::Good),
        1 => Ok(FixQuality::Degraded),
        2 => Ok(FixQuality::Invalid),
        _ => Err(ProtocolError::BadFlags {
            got: u16::from(flags),
        }),
    }
}

/// Decode/validation failures. Every variant closes the connection
/// after a [`Status::BadRequest`] response where one can be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Payload shorter or longer than the fixed layout requires.
    BadLength {
        /// Bytes received.
        got: usize,
    },
    /// Unknown tag byte.
    BadTag {
        /// Byte received.
        got: u8,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// Byte received.
        got: u8,
    },
    /// Unknown status byte in a response.
    BadStatus {
        /// Byte received.
        got: u8,
    },
    /// A request carried a non-finite heading or field component.
    NonFiniteField,
    /// Flag bits this version does not understand (reserved for future
    /// versions), or an invalid quality encoding.
    BadFlags {
        /// Flags received.
        got: u16,
    },
    /// The frame payload exceeds [`MAX_FRAME`] — rejected before any
    /// oversized write (whose `u32` length prefix would otherwise
    /// silently truncate and desync the stream) and before any
    /// oversized read.
    FrameTooLarge {
        /// Payload length seen.
        got: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadLength { got } => write!(f, "bad payload length {got}"),
            ProtocolError::BadTag { got } => write!(f, "bad frame tag {got:#04x}"),
            ProtocolError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            ProtocolError::BadStatus { got } => write!(f, "unknown status byte {got}"),
            ProtocolError::NonFiniteField => f.write_str("non-finite heading or field component"),
            ProtocolError::BadFlags { got } => write!(f, "unknown flag bits {got:#06x}"),
            ProtocolError::FrameTooLarge { got } => {
                write!(f, "frame length {got} exceeds maximum {MAX_FRAME}")
            }
        }
    }
}

impl Error for ProtocolError {}

impl FixRequest {
    /// Encodes the payload into `buf`, returning the payload length.
    /// `buf` must hold at least [`REQUEST_LEN_VECTOR`] bytes.
    pub fn encode_payload(&self, buf: &mut [u8]) -> usize {
        let mut flags: u16 = 0;
        if matches!(self.field, FieldSpec::FieldVector { .. }) {
            flags |= FLAG_FIELD_VECTOR;
        }
        if self.no_cache {
            flags |= FLAG_NO_CACHE;
        }
        buf[0] = REQUEST_TAG;
        buf[1] = WIRE_VERSION;
        buf[2..4].copy_from_slice(&flags.to_le_bytes());
        buf[4..12].copy_from_slice(&self.id.to_le_bytes());
        buf[12..20].copy_from_slice(&self.seed.to_le_bytes());
        buf[20..24].copy_from_slice(&self.deadline_ms.to_le_bytes());
        match self.field {
            FieldSpec::HeadingTruth(deg) => {
                buf[24..32].copy_from_slice(&deg.to_le_bytes());
                REQUEST_LEN_HEADING
            }
            FieldSpec::FieldVector { hx, hy } => {
                buf[24..32].copy_from_slice(&hx.to_le_bytes());
                buf[32..40].copy_from_slice(&hy.to_le_bytes());
                REQUEST_LEN_VECTOR
            }
        }
    }

    /// Decodes a request payload (without the length prefix).
    ///
    /// Non-finite heading/field components are rejected here so they can
    /// never reach the measurement core.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        if payload.len() < REQUEST_HEAD {
            return Err(ProtocolError::BadLength { got: payload.len() });
        }
        if payload[0] != REQUEST_TAG {
            return Err(ProtocolError::BadTag { got: payload[0] });
        }
        if payload[1] != WIRE_VERSION {
            return Err(ProtocolError::BadVersion { got: payload[1] });
        }
        let flags = u16::from_le_bytes(payload[2..4].try_into().unwrap());
        if flags & !REQUEST_FLAGS_KNOWN != 0 {
            return Err(ProtocolError::BadFlags { got: flags });
        }
        let id = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        let seed = u64::from_le_bytes(payload[12..20].try_into().unwrap());
        let deadline_ms = u32::from_le_bytes(payload[20..24].try_into().unwrap());
        let field = if flags & FLAG_FIELD_VECTOR != 0 {
            if payload.len() != REQUEST_LEN_VECTOR {
                return Err(ProtocolError::BadLength { got: payload.len() });
            }
            FieldSpec::FieldVector {
                hx: f64::from_le_bytes(payload[24..32].try_into().unwrap()),
                hy: f64::from_le_bytes(payload[32..40].try_into().unwrap()),
            }
        } else {
            if payload.len() != REQUEST_LEN_HEADING {
                return Err(ProtocolError::BadLength { got: payload.len() });
            }
            FieldSpec::HeadingTruth(f64::from_le_bytes(payload[24..32].try_into().unwrap()))
        };
        let finite = match field {
            FieldSpec::HeadingTruth(deg) => deg.is_finite(),
            FieldSpec::FieldVector { hx, hy } => hx.is_finite() && hy.is_finite(),
        };
        if !finite {
            return Err(ProtocolError::NonFiniteField);
        }
        Ok(Self {
            id,
            seed,
            deadline_ms,
            no_cache: flags & FLAG_NO_CACHE != 0,
            field,
        })
    }
}

impl FixResponse {
    /// Encodes the payload into `buf`, returning the payload length.
    /// `buf` must hold at least [`RESPONSE_LEN`] bytes.
    pub fn encode_payload(&self, buf: &mut [u8]) -> usize {
        let mut flags = quality_bits(self.quality);
        if self.cache_hit {
            flags |= RESP_FLAG_CACHE_HIT;
        }
        if self.clipped {
            flags |= RESP_FLAG_CLIPPED;
        }
        buf[0] = RESPONSE_TAG;
        buf[1] = WIRE_VERSION;
        buf[2] = self.status as u8;
        buf[3] = flags;
        buf[4..12].copy_from_slice(&self.id.to_le_bytes());
        buf[12..20].copy_from_slice(&self.heading.to_le_bytes());
        buf[20..28].copy_from_slice(&self.duty_x.to_le_bytes());
        buf[28..36].copy_from_slice(&self.duty_y.to_le_bytes());
        buf[36..44].copy_from_slice(&self.count_x.to_le_bytes());
        buf[44..52].copy_from_slice(&self.count_y.to_le_bytes());
        RESPONSE_LEN
    }

    /// Decodes a response payload (without the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        if payload.len() != RESPONSE_LEN {
            return Err(ProtocolError::BadLength { got: payload.len() });
        }
        if payload[0] != RESPONSE_TAG {
            return Err(ProtocolError::BadTag { got: payload[0] });
        }
        if payload[1] != WIRE_VERSION {
            return Err(ProtocolError::BadVersion { got: payload[1] });
        }
        let status = Status::from_wire(payload[2])?;
        let flags = payload[3];
        if flags & !(RESP_FLAG_CACHE_HIT | RESP_FLAG_CLIPPED | RESP_QUALITY_MASK) != 0 {
            return Err(ProtocolError::BadFlags {
                got: u16::from(flags),
            });
        }
        Ok(Self {
            id: u64::from_le_bytes(payload[4..12].try_into().unwrap()),
            status,
            cache_hit: flags & RESP_FLAG_CACHE_HIT != 0,
            clipped: flags & RESP_FLAG_CLIPPED != 0,
            quality: quality_from_bits(flags)?,
            heading: f64::from_le_bytes(payload[12..20].try_into().unwrap()),
            duty_x: f64::from_le_bytes(payload[20..28].try_into().unwrap()),
            duty_y: f64::from_le_bytes(payload[28..36].try_into().unwrap()),
            count_x: i64::from_le_bytes(payload[36..44].try_into().unwrap()),
            count_y: i64::from_le_bytes(payload[44..52].try_into().unwrap()),
        })
    }
}

/// Writes one frame: `u32` LE length prefix followed by the payload.
///
/// A payload longer than [`MAX_FRAME`] is rejected with a typed
/// [`ProtocolError::FrameTooLarge`] (as [`io::ErrorKind::InvalidInput`])
/// **before anything is written**: an unchecked `len as u32` cast would
/// truncate the prefix for payloads over 4 GiB and, for anything over
/// `MAX_FRAME`, emit a frame every compliant reader rejects mid-stream
/// — either way desynchronising the connection.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            ProtocolError::FrameTooLarge { got: payload.len() },
        ));
    }
    let mut frame = [0u8; 4 + MAX_FRAME];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..4 + payload.len()].copy_from_slice(payload);
    w.write_all(&frame[..4 + payload.len()])
}

/// Writes a request as one frame.
pub fn write_request<W: Write>(w: &mut W, request: &FixRequest) -> io::Result<()> {
    let mut buf = [0u8; REQUEST_LEN_VECTOR];
    let len = request.encode_payload(&mut buf);
    write_frame(w, &buf[..len])
}

/// Writes a response as one frame.
pub fn write_response<W: Write>(w: &mut W, response: &FixResponse) -> io::Result<()> {
    let mut buf = [0u8; RESPONSE_LEN];
    let len = response.encode_payload(&mut buf);
    write_frame(w, &buf[..len])
}

/// Outcome of reading one frame from a blocking stream.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete payload of the given length is in the buffer.
    Frame(usize),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Eof,
}

/// Reads one length-prefixed frame into `buf`, growing it if needed.
///
/// EOF exactly on a frame boundary yields [`ReadFrame::Eof`]; EOF in the
/// middle of a frame is [`io::ErrorKind::UnexpectedEof`]. A length
/// prefix above [`MAX_FRAME`] is [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<ReadFrame> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_bytes[got..])? {
            0 if got == 0 => return Ok(ReadFrame::Eof),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { got: len },
        ));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    r.read_exact(&mut buf[..len])?;
    Ok(ReadFrame::Frame(len))
}

/// Outcome of a poll-aware frame read (see [`read_frame_poll`]).
#[derive(Debug)]
pub enum PollRead {
    /// A complete payload of the given length is in the buffer.
    Frame(usize),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Eof,
    /// `stop()` returned `true` while the read was blocked.
    Stopped,
}

#[derive(PartialEq)]
enum Fill {
    Done,
    Eof,
    Stopped,
}

fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
    eof_ok_at_start: bool,
) -> io::Result<Fill> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) if pos == 0 && eof_ok_at_start => return Ok(Fill::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            }
            Ok(n) => pos += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    return Ok(Fill::Stopped);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Done)
}

/// [`read_frame`] for a stream with a read timeout: each time the read
/// blocks past the timeout, `stop` is consulted — returning `true`
/// abandons the read (and any partial frame) with [`PollRead::Stopped`].
/// This is how server connection readers stay responsive to shutdown
/// while parked on an idle socket.
pub fn read_frame_poll<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    stop: &dyn Fn() -> bool,
) -> io::Result<PollRead> {
    let mut len_bytes = [0u8; 4];
    match read_full(r, &mut len_bytes, stop, true)? {
        Fill::Eof => return Ok(PollRead::Eof),
        Fill::Stopped => return Ok(PollRead::Stopped),
        Fill::Done => {}
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { got: len },
        ));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    match read_full(r, &mut buf[..len], stop, false)? {
        Fill::Done => Ok(PollRead::Frame(len)),
        Fill::Stopped => Ok(PollRead::Stopped),
        Fill::Eof => unreachable!("read_full only yields Eof when eof_ok_at_start"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_round_trips_both_shapes() {
        let heading = FixRequest {
            id: 7,
            seed: 42,
            deadline_ms: 250,
            no_cache: false,
            field: FieldSpec::HeadingTruth(123.25),
        };
        let vector = FixRequest {
            id: u64::MAX,
            seed: 0,
            deadline_ms: 0,
            no_cache: true,
            field: FieldSpec::FieldVector { hx: -3.5, hy: 12.0 },
        };
        for req in [heading, vector] {
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = req.encode_payload(&mut buf);
            assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
        }
    }

    #[test]
    fn response_round_trips_bitwise() {
        for quality in [FixQuality::Good, FixQuality::Degraded, FixQuality::Invalid] {
            let resp = FixResponse {
                id: 99,
                status: Status::Ok,
                cache_hit: true,
                clipped: true,
                quality,
                heading: 359.999,
                duty_x: 0.4751,
                duty_y: 0.5199,
                count_x: -32767,
                count_y: 32767,
            };
            let mut buf = [0u8; RESPONSE_LEN];
            let len = resp.encode_payload(&mut buf);
            assert_eq!(FixResponse::decode_payload(&buf[..len]), Ok(resp));
        }
    }

    #[test]
    fn unknown_request_flag_bits_are_rejected() {
        let req = FixRequest {
            id: 1,
            seed: 2,
            deadline_ms: 0,
            no_cache: true,
            field: FieldSpec::HeadingTruth(10.0),
        };
        let mut buf = [0u8; REQUEST_LEN_VECTOR];
        let len = req.encode_payload(&mut buf);
        buf[2] |= 1 << 6; // a flag bit from the future
        assert_eq!(
            FixRequest::decode_payload(&buf[..len]),
            Err(ProtocolError::BadFlags {
                got: FLAG_NO_CACHE | 1 << 6
            })
        );
    }

    #[test]
    fn oversized_payload_is_rejected_at_write_time() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the wire");
        let inner = err.get_ref().expect("typed source");
        let proto = inner
            .downcast_ref::<ProtocolError>()
            .expect("ProtocolError source");
        assert_eq!(*proto, ProtocolError::FrameTooLarge { got: MAX_FRAME + 1 });
        // At the boundary itself, the frame goes through.
        write_frame(&mut sink, &vec![0u8; MAX_FRAME]).unwrap();
        assert_eq!(sink.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn bad_frames_are_typed_errors() {
        assert_eq!(
            FixRequest::decode_payload(&[0u8; 4]),
            Err(ProtocolError::BadLength { got: 4 })
        );
        let mut buf = [0u8; REQUEST_LEN_HEADING];
        let req = FixRequest {
            id: 1,
            seed: 2,
            deadline_ms: 3,
            no_cache: false,
            field: FieldSpec::HeadingTruth(10.0),
        };
        req.encode_payload(&mut buf);
        let mut bad_tag = buf;
        bad_tag[0] = 0x7f;
        assert_eq!(
            FixRequest::decode_payload(&bad_tag),
            Err(ProtocolError::BadTag { got: 0x7f })
        );
        let mut bad_version = buf;
        bad_version[1] = 99;
        assert_eq!(
            FixRequest::decode_payload(&bad_version),
            Err(ProtocolError::BadVersion { got: 99 })
        );
        let mut nan = buf;
        nan[24..32].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            FixRequest::decode_payload(&nan),
            Err(ProtocolError::NonFiniteField)
        );
        // Vector flag with a heading-sized payload.
        let mut short_vector = buf;
        short_vector[2] = FLAG_FIELD_VECTOR as u8;
        assert_eq!(
            FixRequest::decode_payload(&short_vector),
            Err(ProtocolError::BadLength {
                got: REQUEST_LEN_HEADING
            })
        );
    }

    #[test]
    fn status_wire_bytes_round_trip() {
        for status in [
            Status::Ok,
            Status::Overloaded,
            Status::DeadlineExceeded,
            Status::BadRequest,
            Status::ShuttingDown,
            Status::InvalidConfig,
            Status::Unmeasurable,
        ] {
            assert_eq!(Status::from_wire(status as u8), Ok(status));
        }
        assert_eq!(
            Status::from_wire(200),
            Err(ProtocolError::BadStatus { got: 200 })
        );
    }

    #[test]
    fn frame_io_round_trips_over_a_buffer() {
        let req = FixRequest {
            id: 5,
            seed: 6,
            deadline_ms: 7,
            no_cache: true,
            field: FieldSpec::FieldVector { hx: 1.0, hy: 2.0 },
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        match read_frame(&mut cursor, &mut buf).unwrap() {
            ReadFrame::Frame(len) => {
                assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
            }
            ReadFrame::Eof => panic!("expected a frame"),
        }
        assert!(matches!(
            read_frame(&mut cursor, &mut buf).unwrap(),
            ReadFrame::Eof
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn request_encode_decode_is_identity(
            id in any::<u64>(),
            seed in any::<u64>(),
            deadline_ms in any::<u32>(),
            no_cache in any::<bool>(),
            vector in any::<bool>(),
            a in -1e6f64..1e6,
            b in -1e6f64..1e6,
        ) {
            let field = if vector {
                FieldSpec::FieldVector { hx: a, hy: b }
            } else {
                FieldSpec::HeadingTruth(a)
            };
            let req = FixRequest { id, seed, deadline_ms, no_cache, field };
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = req.encode_payload(&mut buf);
            prop_assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
        }

        #[test]
        fn response_encode_decode_is_identity(
            id in any::<u64>(),
            status_byte in 0u8..7,
            cache_hit in any::<bool>(),
            clipped in any::<bool>(),
            quality_idx in 0u8..3,
            heading_bits in any::<u64>(),
            duty_x in 0.0f64..1.0,
            duty_y in 0.0f64..1.0,
            count_x in any::<i64>(),
            count_y in any::<i64>(),
        ) {
            // Headings from raw bit patterns exercise NaN/∞/subnormal
            // payloads: the response layer must carry them bit-exactly.
            let heading = f64::from_bits(heading_bits);
            let quality = [FixQuality::Good, FixQuality::Degraded, FixQuality::Invalid]
                [quality_idx as usize];
            let resp = FixResponse {
                id,
                status: Status::from_wire(status_byte).unwrap(),
                cache_hit,
                clipped,
                quality,
                heading,
                duty_x,
                duty_y,
                count_x,
                count_y,
            };
            let mut buf = [0u8; RESPONSE_LEN];
            let len = resp.encode_payload(&mut buf);
            let back = FixResponse::decode_payload(&buf[..len]).unwrap();
            prop_assert_eq!(back.heading.to_bits(), resp.heading.to_bits());
            prop_assert_eq!(back.id, resp.id);
            prop_assert_eq!(back.status, resp.status);
            prop_assert_eq!(back.cache_hit, resp.cache_hit);
            prop_assert_eq!(back.clipped, resp.clipped);
            prop_assert_eq!(back.quality, resp.quality);
            prop_assert_eq!(back.count_x, resp.count_x);
            prop_assert_eq!(back.count_y, resp.count_y);
        }
    }
}
