//! The binary frame envelope: magic, version, kind, length, CRC.

use goofi_db::storage::crc32;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

/// The protocol version this build speaks. Bumped only when existing
/// frame or message encodings change; new message kinds are additive
/// (the enums are `#[non_exhaustive]`).
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on a frame's payload length. Larger declared lengths are
/// rejected before any allocation — a corrupted length field must not
/// become an out-of-memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const MAGIC: [u8; 4] = *b"GFRM";
const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 4;

/// What a frame carries, from the header's kind byte.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → daemon request.
    Request,
    /// Daemon → client response.
    Response,
    /// Daemon → client subscription event.
    Event,
    /// Daemon → worker-process command.
    WorkerRequest,
    /// Worker process → daemon reply.
    WorkerResponse,
    /// Worker process → daemon `ChunkDone` rows, in the storage engine's
    /// binary row codec rather than JSON.
    Rows,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Event => 3,
            FrameKind::WorkerRequest => 4,
            FrameKind::WorkerResponse => 5,
            FrameKind::Rows => 6,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Event,
            4 => FrameKind::WorkerRequest,
            5 => FrameKind::WorkerResponse,
            6 => FrameKind::Rows,
            _ => return None,
        })
    }
}

/// Typed decode/transport errors. Every malformed input maps to one of
/// these — framing never panics on hostile bytes.
#[non_exhaustive]
#[derive(Debug)]
pub enum NetError {
    /// The stream does not start with the `GFRM` magic.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version in the received frame.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// Unknown frame-kind byte.
    BadKind(u8),
    /// The frame ended before its declared length.
    Truncated {
        /// Bytes the header promised.
        wanted: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload checksum does not match.
    CorruptPayload {
        /// CRC32 from the header.
        expected: u32,
        /// CRC32 of the received payload.
        found: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// Declared length.
        len: u32,
        /// The limit.
        max: u32,
    },
    /// The payload failed to encode or decode as the expected message.
    Codec(String),
    /// The frame carried a different message kind than expected.
    WrongKind {
        /// The kind expected by the caller.
        expected: FrameKind,
        /// The kind received.
        got: FrameKind,
    },
    /// The peer closed the stream at a frame boundary.
    ClosedStream,
    /// Transport I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:?} (expected \"GFRM\")"),
            NetError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{got}, this build v{want}"
                )
            }
            NetError::BadKind(b) => write!(f, "unknown frame kind {b}"),
            NetError::Truncated { wanted, got } => {
                write!(f, "truncated frame: wanted {wanted} bytes, got {got}")
            }
            NetError::CorruptPayload { expected, found } => write!(
                f,
                "corrupt frame payload: crc32 {found:#010x}, header says {expected:#010x}"
            ),
            NetError::TooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            NetError::Codec(msg) => write!(f, "message codec error: {msg}"),
            NetError::WrongKind { expected, got } => {
                write!(f, "expected a {expected:?} frame, got {got:?}")
            }
            NetError::ClosedStream => write!(f, "peer closed the stream"),
            NetError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Wire-crate result type.
pub type NetResult<T> = Result<T, NetError>;

/// One decoded frame envelope. The payload is opaque bytes here; the
/// typed message layer ([`crate::Request`] & friends) decodes it after
/// the version check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version from the header.
    pub version: u16,
    /// What the payload is.
    pub kind: FrameKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A new frame at [`PROTOCOL_VERSION`].
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame {
            version: PROTOCOL_VERSION,
            kind,
            payload,
        }
    }

    /// Serializes `msg` into a frame of `kind`.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] on serialization failure, [`NetError::TooLarge`]
    /// when the encoded message exceeds [`MAX_FRAME_LEN`].
    pub fn encode_msg<T: Serialize>(kind: FrameKind, msg: &T) -> NetResult<Frame> {
        let json = serde_json::to_string(msg).map_err(|e| NetError::Codec(e.to_string()))?;
        Frame::bounded(kind, json.into_bytes())
    }

    /// A new frame, refusing payloads over [`MAX_FRAME_LEN`].
    pub(crate) fn bounded(kind: FrameKind, payload: Vec<u8>) -> NetResult<Frame> {
        if payload.len() > MAX_FRAME_LEN as usize {
            return Err(NetError::TooLarge {
                len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
                max: MAX_FRAME_LEN,
            });
        }
        Ok(Frame::new(kind, payload))
    }

    /// Decodes the payload as a message of `kind`, enforcing the version
    /// and kind checks.
    ///
    /// # Errors
    ///
    /// [`NetError::VersionMismatch`] for frames from a different protocol
    /// version, [`NetError::WrongKind`] for mismatched frame kinds and
    /// [`NetError::Codec`] for undecodable payloads.
    pub fn decode_msg<T: Deserialize>(&self, kind: FrameKind) -> NetResult<T> {
        self.expect(kind)?;
        let text = std::str::from_utf8(&self.payload)
            .map_err(|e| NetError::Codec(format!("payload is not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| NetError::Codec(e.to_string()))
    }

    /// Checks that this frame speaks [`PROTOCOL_VERSION`] and is of `kind`.
    pub(crate) fn expect(&self, kind: FrameKind) -> NetResult<()> {
        if self.version != PROTOCOL_VERSION {
            return Err(NetError::VersionMismatch {
                got: self.version,
                want: PROTOCOL_VERSION,
            });
        }
        if self.kind != kind {
            return Err(NetError::WrongKind {
                expected: kind,
                got: self.kind,
            });
        }
        Ok(())
    }

    /// Bytes this frame occupies on the wire, header included.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// The frame's full wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.kind.to_u8());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one frame from the start of `buf`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// Every framing violation maps to a typed [`NetError`]; hostile
    /// bytes never panic. Version mismatches are *not* rejected here —
    /// the header layout is version-independent, so the caller can still
    /// answer a mismatched peer with a typed error response.
    pub fn decode(buf: &[u8]) -> NetResult<(Frame, usize)> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                wanted: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic: [u8; 4] = buf[0..4].try_into().expect("4-byte slice");
        if magic != MAGIC {
            return Err(NetError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().expect("2-byte slice"));
        let kind = FrameKind::from_u8(buf[6]).ok_or(NetError::BadKind(buf[6]))?;
        let len = u32::from_le_bytes(buf[7..11].try_into().expect("4-byte slice"));
        if len > MAX_FRAME_LEN {
            return Err(NetError::TooLarge {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let expected_crc = u32::from_le_bytes(buf[11..15].try_into().expect("4-byte slice"));
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(NetError::Truncated {
                wanted: total,
                got: buf.len(),
            });
        }
        let payload = buf[HEADER_LEN..total].to_vec();
        let found = crc32(&payload);
        if found != expected_crc {
            return Err(NetError::CorruptPayload {
                expected: expected_crc,
                found,
            });
        }
        Ok((
            Frame {
                version,
                kind,
                payload,
            },
            total,
        ))
    }
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// [`NetError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> NetResult<()> {
    w.write_all(&frame.encode())?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame.
///
/// # Errors
///
/// [`NetError::ClosedStream`] on EOF at a frame boundary (the clean
/// shutdown case); [`NetError::Truncated`] on EOF inside a frame; the
/// other [`NetError`] variants for malformed headers or payloads.
pub fn read_frame(r: &mut impl Read) -> NetResult<Frame> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Err(NetError::ClosedStream);
    }
    if got < HEADER_LEN {
        return Err(NetError::Truncated {
            wanted: HEADER_LEN,
            got,
        });
    }
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    let kind = FrameKind::from_u8(header[6]).ok_or(NetError::BadKind(header[6]))?;
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(NetError::TooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let expected_crc = u32::from_le_bytes(header[11..15].try_into().expect("4-byte slice"));
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(NetError::Truncated {
            wanted: HEADER_LEN + len as usize,
            got: HEADER_LEN + got,
        });
    }
    let found = crc32(&payload);
    if found != expected_crc {
        return Err(NetError::CorruptPayload {
            expected: expected_crc,
            found,
        });
    }
    Ok(Frame {
        version,
        kind,
        payload,
    })
}

/// Reads until `buf` is full or EOF; returns the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> NetResult<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_buffer() {
        let frame = Frame::new(FrameKind::Request, b"{\"x\":1}".to_vec());
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("decodes");
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        let a = Frame::new(FrameKind::Event, b"abc".to_vec());
        let b = Frame::new(FrameKind::Response, Vec::new());
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap(), b);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::ClosedStream)
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = Frame::new(FrameKind::Request, vec![1, 2, 3]).encode();
        bytes[0] = b'X';
        assert!(matches!(Frame::decode(&bytes), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn corrupt_payload_is_typed() {
        let mut bytes = Frame::new(FrameKind::Request, vec![1, 2, 3]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::CorruptPayload { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = Frame::new(FrameKind::Event, vec![9; 40]).encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut bytes = Frame::new(FrameKind::Request, vec![0; 8]).encode();
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::TooLarge { .. })
        ));
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::TooLarge { .. })
        ));
    }

    #[test]
    fn foreign_version_decodes_as_envelope_but_not_as_message() {
        let mut frame = Frame::new(FrameKind::Request, b"{}".to_vec());
        frame.version = PROTOCOL_VERSION + 1;
        let bytes = frame.encode();
        let (back, _) = Frame::decode(&bytes).expect("envelope is version-independent");
        assert_eq!(back.version, PROTOCOL_VERSION + 1);
        let err = back
            .decode_msg::<crate::Request>(FrameKind::Request)
            .unwrap_err();
        assert!(matches!(err, NetError::VersionMismatch { .. }));
    }
}
