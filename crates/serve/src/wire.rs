//! Length-prefixed binary framing over TCP.
//!
//! One frame = `u32` little-endian body length + body. A request body is
//! `u16` query count followed by that many `u16`-length-prefixed
//! canonical query encodings; the response frame mirrors it with
//! `u32`-length-prefixed answer payloads in request order. A malformed
//! frame (bad tag, truncated field, oversized body) closes the
//! connection; clients see EOF rather than an undefined answer.

use crate::engine::QueryEngine;
use crate::query::Query;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on a frame body — queries are tens of bytes, so anything
/// near this is a protocol error, not a workload.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;
/// Maximum queries per batch frame.
pub const MAX_BATCH: usize = u16::MAX as usize;

/// Encodes a request frame body from a query batch.
///
/// # Panics
///
/// Panics if the batch exceeds [`MAX_BATCH`].
pub fn encode_request(queries: &[Query]) -> Vec<u8> {
    assert!(queries.len() <= MAX_BATCH, "batch too large");
    let mut body = Vec::with_capacity(2 + queries.len() * 24);
    body.extend_from_slice(&(queries.len() as u16).to_le_bytes());
    for query in queries {
        let bytes = query.encode();
        body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        body.extend_from_slice(&bytes);
    }
    body
}

/// Decodes a request frame body.
///
/// # Errors
///
/// Returns a message on truncation, trailing bytes, or any malformed
/// query encoding.
pub fn decode_request(body: &[u8]) -> Result<Vec<Query>, String> {
    let count = u16::from_le_bytes(body.get(..2).ok_or("short header")?.try_into().expect("2"));
    let mut at = 2usize;
    let mut queries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = u16::from_le_bytes(
            body.get(at..at + 2)
                .ok_or("truncated query length")?
                .try_into()
                .expect("2"),
        ) as usize;
        at += 2;
        let bytes = body.get(at..at + len).ok_or("truncated query body")?;
        at += len;
        queries.push(Query::decode(bytes)?);
    }
    if at != body.len() {
        return Err("trailing bytes after batch".to_string());
    }
    Ok(queries)
}

/// Encodes a response frame body from positional answer payloads.
pub fn encode_response(payloads: &[Arc<Vec<u8>>]) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + payloads.len() * 48);
    body.extend_from_slice(&(payloads.len() as u16).to_le_bytes());
    for payload in payloads {
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
    }
    body
}

/// Decodes a response frame body into per-query payloads.
///
/// # Errors
///
/// Returns a message on truncation or trailing bytes.
pub fn decode_response(body: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let count = u16::from_le_bytes(body.get(..2).ok_or("short header")?.try_into().expect("2"));
    let mut at = 2usize;
    let mut payloads = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = u32::from_le_bytes(
            body.get(at..at + 4)
                .ok_or("truncated answer length")?
                .try_into()
                .expect("4"),
        ) as usize;
        at += 4;
        payloads.push(
            body.get(at..at + len)
                .ok_or("truncated answer body")?
                .to_vec(),
        );
        at += len;
    }
    if at != body.len() {
        return Err("trailing bytes after response".to_string());
    }
    Ok(payloads)
}

/// Writes one `u32`-length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    writer.write_all(&(body.len() as u32).to_le_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; an oversized length prefix is reported as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A running TCP front end; dropping the handle leaves the threads
/// detached, call [`shutdown`](ServerHandle::shutdown) for a clean stop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Batch frames served so far across all connections.
    pub fn frames_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting, unblocks the accept loop, and joins it.
    /// In-flight connections finish their current frame and close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the engine until
/// [`ServerHandle::shutdown`]. At most `max_conns` connections are
/// serviced concurrently; excess connections are refused (closed
/// immediately) rather than queued.
///
/// # Errors
///
/// Returns the bind error.
pub fn serve(
    engine: Arc<QueryEngine>,
    addr: &str,
    max_conns: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let accept_stop = Arc::clone(&stop);
    let accept_served = Arc::clone(&served);
    let accept_thread = std::thread::spawn(move || {
        let live = Arc::new(AtomicU64::new(0));
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if live.load(Ordering::SeqCst) >= max_conns as u64 {
                drop(stream); // refuse: close without serving
                continue;
            }
            live.fetch_add(1, Ordering::SeqCst);
            let engine = Arc::clone(&engine);
            let live = Arc::clone(&live);
            let served = Arc::clone(&accept_served);
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || {
                let _ = handle_connection(&engine, stream, &served, &stop);
                live.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        served,
    })
}

fn handle_connection(
    engine: &QueryEngine,
    mut stream: TcpStream,
    served: &AtomicU64,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    while !stop.load(Ordering::SeqCst) {
        let Some(body) = read_frame(&mut stream)? else {
            return Ok(()); // clean EOF
        };
        let queries = match decode_request(&body) {
            Ok(queries) => queries,
            Err(_) => return Ok(()), // malformed: close
        };
        let responses = engine.execute_batch(&queries);
        write_frame(&mut stream, &encode_response(&responses))?;
        served.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// A minimal blocking client for tests and the load generator's TCP
/// mode: one connection, synchronous batch round trips.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving engine.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one batch and reads the response frame.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a closed/hung connection or a malformed
    /// response frame.
    pub fn roundtrip(&mut self, queries: &[Query]) -> std::io::Result<Vec<Vec<u8>>> {
        write_frame(&mut self.stream, &encode_request(queries))?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        decode_response(&body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::substrate::Substrate;
    use btcpart::Scenario;

    fn test_engine() -> Arc<QueryEngine> {
        let substrate = Substrate::new(
            Scenario::new().scale(0.05).seed(20_180_228).build_static(),
            None,
        );
        Arc::new(QueryEngine::new(
            Arc::new(substrate),
            EngineOptions::default(),
        ))
    }

    fn sample_batch() -> Vec<Query> {
        vec![
            Query::PartitionCost { target_as: 24940 },
            Query::BlockawareTradeoff {
                threshold_secs: 600,
                lambda: 1.0,
            },
            Query::Eclipse {
                target_as: 16276,
                prefixes: 10,
                cascade: false,
            },
        ]
    }

    #[test]
    fn request_and_response_bodies_round_trip() {
        let queries = sample_batch();
        let decoded = decode_request(&encode_request(&queries)).unwrap();
        assert_eq!(decoded, queries);

        let payloads: Vec<Arc<Vec<u8>>> =
            vec![Arc::new(vec![1, 2, 3]), Arc::new(vec![]), Arc::new(vec![9])];
        let decoded = decode_response(&encode_response(&payloads)).unwrap();
        assert_eq!(decoded, vec![vec![1, 2, 3], vec![], vec![9]]);
    }

    #[test]
    fn malformed_request_bodies_are_rejected() {
        assert!(decode_request(&[]).is_err());
        // Count says one query, body empty.
        assert!(decode_request(&[1, 0]).is_err());
        // Trailing garbage.
        let mut body = encode_request(&sample_batch());
        body.push(0);
        assert!(decode_request(&body).is_err());
    }

    #[test]
    fn tcp_round_trip_matches_in_process_execution() {
        let engine = test_engine();
        let queries = sample_batch();
        let direct: Vec<Vec<u8>> = engine
            .execute_batch(&queries)
            .into_iter()
            .map(|r| r.as_ref().clone())
            .collect();

        let server = serve(Arc::clone(&engine), "127.0.0.1:0", 4).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let over_wire = client.roundtrip(&queries).unwrap();
        assert_eq!(direct, over_wire);
        // A second round trip on the same connection still works.
        let again = client.roundtrip(&queries).unwrap();
        assert_eq!(direct, again);
        assert_eq!(server.frames_served(), 2);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn oversized_frame_is_invalid_data() {
        let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        let err = read_frame(&mut bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
