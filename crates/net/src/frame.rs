//! Line-delimited message framing over any `Read`/`Write` pair.
//!
//! One frame is one line: the protocol prefix `hycim1 `, a
//! single-line JSON document (the [`json`](crate::json) writer never
//! emits raw newlines), and `\n`. The prefix carries the protocol
//! version, so a peer speaking anything else — an older worker, a
//! stray HTTP client — fails with [`FrameError::BadPrefix`] on the
//! first frame instead of producing garbage downstream.
//!
//! The receiver enforces a byte bound per frame: a peer that streams
//! an endless line cannot balloon memory, it hits
//! [`FrameError::Oversized`]. EOF in the middle of a line (a
//! connection cut mid-frame) is [`FrameError::Truncated`], distinct
//! from the clean end-of-stream `Ok(None)`.

use std::fmt;
use std::io::{BufRead, Write};

use crate::json::{JsonError, Value};

/// Protocol tag every frame starts with; bump the digit on any
/// incompatible change.
const FRAME_PREFIX: &str = "hycim1 ";

/// Default per-frame byte bound (generous: the largest legitimate
/// frame is a submitted problem instance, tens of kilobytes).
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream ended inside a frame (no terminating newline).
    Truncated {
        /// Bytes read before the stream ended.
        got: usize,
    },
    /// A frame exceeded the receiver's byte bound. The stream is
    /// unrecoverable after this — the rest of the oversized line was
    /// not consumed.
    Oversized {
        /// The configured bound.
        limit: usize,
    },
    /// The line did not start with the protocol prefix — the peer speaks
    /// a different protocol (or protocol version).
    BadPrefix {
        /// The first bytes of the offending line (truncated for
        /// display).
        got: String,
    },
    /// The payload was not a valid protocol-dialect JSON document.
    Json(JsonError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Truncated { got } => {
                write!(f, "stream ended inside a frame ({got} bytes read)")
            }
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte bound")
            }
            FrameError::BadPrefix { got } => {
                write!(
                    f,
                    "frame does not start with {FRAME_PREFIX:?} (got {got:?})"
                )
            }
            FrameError::Json(e) => write!(f, "frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for FrameError {
    fn from(e: JsonError) -> Self {
        FrameError::Json(e)
    }
}

/// Writes frames to a transport. Every [`send`](Self::send) flushes,
/// so a frame is on the wire when the call returns.
pub struct MessageSender<W: Write> {
    inner: W,
}

impl<W: Write> MessageSender<W> {
    /// Wraps a transport.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Sends one message as one frame.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send(&mut self, message: &Value) -> std::io::Result<()> {
        let mut line = String::with_capacity(FRAME_PREFIX.len() + 64);
        line.push_str(FRAME_PREFIX);
        line.push_str(&message.encode());
        line.push('\n');
        self.inner.write_all(line.as_bytes())?;
        self.inner.flush()
    }
}

/// Reads frames from a transport, enforcing the per-frame byte bound.
pub struct MessageReceiver<R: BufRead> {
    inner: R,
    max_frame: usize,
}

impl<R: BufRead> MessageReceiver<R> {
    /// Wraps a transport with the [`DEFAULT_MAX_FRAME`] bound.
    pub fn new(inner: R) -> Self {
        Self::with_max_frame(inner, DEFAULT_MAX_FRAME)
    }

    /// Wraps a transport with an explicit per-frame byte bound.
    pub fn with_max_frame(inner: R, max_frame: usize) -> Self {
        Self { inner, max_frame }
    }

    /// The wrapped transport (e.g. to set socket options on it).
    pub fn inner_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next frame. `Ok(None)` is a clean end-of-stream (the
    /// peer closed between frames).
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; after [`FrameError::Oversized`] the stream
    /// is desynchronized and must be dropped.
    pub fn recv(&mut self) -> Result<Option<Value>, FrameError> {
        let Some(line) = read_bounded_line(&mut self.inner, self.max_frame)? else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&line).map_err(|_| FrameError::BadPrefix {
            got: String::from_utf8_lossy(&line[..line.len().min(32)]).into_owned(),
        })?;
        // Tolerate a trailing \r so a telnet-style peer still parses.
        let line = line.strip_suffix('\r').unwrap_or(line);
        let Some(payload) = line.strip_prefix(FRAME_PREFIX) else {
            return Err(FrameError::BadPrefix {
                got: line.chars().take(32).collect(),
            });
        };
        Ok(Some(Value::parse(payload)?))
    }
}

/// Reads up to and excluding the next `\n`, refusing to buffer more
/// than `max` bytes. `Ok(None)` only at a clean stream end.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut line = Vec::new();
    loop {
        let chunk = reader.fill_buf().map_err(FrameError::Io)?;
        if chunk.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(FrameError::Truncated { got: line.len() })
            };
        }
        if let Some(newline) = chunk.iter().position(|&b| b == b'\n') {
            if line.len() + newline > max {
                return Err(FrameError::Oversized { limit: max });
            }
            line.extend_from_slice(&chunk[..newline]);
            reader.consume(newline + 1);
            return Ok(Some(line));
        }
        let taken = chunk.len();
        line.extend_from_slice(chunk);
        reader.consume(taken);
        if line.len() > max {
            return Err(FrameError::Oversized { limit: max });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send_all(messages: &[Value]) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut sender = MessageSender::new(&mut wire);
        for m in messages {
            sender.send(m).unwrap();
        }
        wire
    }

    #[test]
    fn frames_round_trip_in_order() {
        let messages = vec![
            Value::object(vec![("verb", Value::Str("poll".into()))]),
            Value::UInt(42),
            Value::Str("multi\nline\npayload".into()),
        ];
        let wire = send_all(&messages);
        let mut receiver = MessageReceiver::new(wire.as_slice());
        for expected in &messages {
            assert_eq!(receiver.recv().unwrap().as_ref(), Some(expected));
        }
        assert!(receiver.recv().unwrap().is_none(), "clean EOF");
        assert!(receiver.recv().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn truncated_frame_is_not_a_clean_eof() {
        let mut wire = send_all(&[Value::UInt(1)]);
        wire.truncate(wire.len() - 1); // drop the newline
        let mut receiver = MessageReceiver::new(wire.as_slice());
        assert!(matches!(
            receiver.recv(),
            Err(FrameError::Truncated { got }) if got > 0
        ));
    }

    #[test]
    fn oversized_frame_is_bounded() {
        let wire = send_all(&[Value::Str("x".repeat(100))]);
        let mut receiver = MessageReceiver::with_max_frame(wire.as_slice(), 50);
        assert!(matches!(
            receiver.recv(),
            Err(FrameError::Oversized { limit: 50 })
        ));
        // A frame that fits exactly still parses.
        let wire = send_all(&[Value::UInt(7)]);
        let len = wire.len() - 1; // payload bytes excluding newline
        let mut receiver = MessageReceiver::with_max_frame(wire.as_slice(), len);
        assert_eq!(receiver.recv().unwrap(), Some(Value::UInt(7)));
    }

    #[test]
    fn wrong_prefix_is_rejected() {
        let mut receiver = MessageReceiver::new(&b"GET / HTTP/1.1\n"[..]);
        match receiver.recv() {
            Err(FrameError::BadPrefix { got }) => assert!(got.starts_with("GET")),
            other => panic!("expected BadPrefix, got {other:?}"),
        }
        let mut receiver = MessageReceiver::new(&b"hycim2 {}\n"[..]);
        assert!(matches!(receiver.recv(), Err(FrameError::BadPrefix { .. })));
    }

    #[test]
    fn bad_json_payload_carries_the_json_offset() {
        let mut receiver = MessageReceiver::new(&b"hycim1 {\"a\": -1}\n"[..]);
        match receiver.recv() {
            Err(FrameError::Json(e)) => assert!(e.message.contains("negative")),
            other => panic!("expected Json, got {other:?}"),
        }
    }

    #[test]
    fn crlf_lines_parse() {
        let mut receiver = MessageReceiver::new(&b"hycim1 5\r\n"[..]);
        assert_eq!(receiver.recv().unwrap(), Some(Value::UInt(5)));
    }

    #[test]
    fn errors_render_readably() {
        assert!(FrameError::Oversized { limit: 9 }.to_string().contains("9"));
        assert!(FrameError::Truncated { got: 3 }.to_string().contains("3"));
        assert!(FrameError::BadPrefix { got: "x".into() }
            .to_string()
            .contains("hycim1"));
    }
}
