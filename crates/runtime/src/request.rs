//! Request specifications, completion handles, and the deterministic
//! token-stream model.
//!
//! The runtime serves *synthetic* requests: token embeddings are pure
//! functions of `(seed, position)`, standing in for the
//! embedding-lookup + sampling steps a full model would run between
//! attention layers. Determinism is load-bearing, not a convenience —
//! preempt-and-recompute regenerates KV rows from the same functions, and
//! the sequential oracle in the integration tests replays a request
//! bit-identically without access to the runtime's pool.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use fi_tensor::KvDtype;

/// A shared-prefix declaration: the request's first `len` prompt tokens
/// come from `seed`'s token stream instead of the request's own.
///
/// Requests declaring the same `(seed, len)` share those KV rows
/// physically — the scheduler stores the prefix once in the pool, tracks
/// it in the radix tree, and executes decode steps of co-resident sharers
/// as one cascade group (the prefix staged once per group). The declared
/// length is a *maximum*: the scheduler may use a shorter effective
/// prefix (page-aligned, and leaving the request at least one own row) —
/// see [`effective_prefix_len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedPrefix {
    /// Seed of the shared prefix's synthetic token stream.
    pub seed: u64,
    /// Prompt positions `0..len` drawn from the prefix stream.
    pub len: usize,
}

/// What a client asks the runtime to serve: a prompt of `prompt_len`
/// synthetic tokens followed by `output_len` decode steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeRequest {
    /// Prompt tokens to prefill.
    pub prompt_len: usize,
    /// Tokens to decode after the prompt.
    pub output_len: usize,
    /// Seed for the request's synthetic token stream.
    pub seed: u64,
    /// Relative deadline from submission; the scheduler cancels the
    /// request (freeing its KV pages) once it passes.
    pub deadline: Option<Duration>,
    /// Optional shared prefix covering the head of the prompt.
    pub prefix: Option<SharedPrefix>,
    /// Tenant tag for per-tenant latency accounting (0 = untagged). The
    /// runtime treats it as an opaque label; `fi-router` assigns one per
    /// configured tenant so `RuntimeMetrics` can break TTFT/ITL down by
    /// tenant.
    pub tenant: u32,
}

impl RuntimeRequest {
    /// A request with no deadline.
    pub fn new(prompt_len: usize, output_len: usize, seed: u64) -> RuntimeRequest {
        RuntimeRequest {
            prompt_len,
            output_len,
            seed,
            deadline: None,
            prefix: None,
            tenant: 0,
        }
    }

    /// Tag the request with a tenant id for per-tenant latency metrics.
    pub fn with_tenant(mut self, tenant: u32) -> RuntimeRequest {
        self.tenant = tenant;
        self
    }

    /// Attach a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RuntimeRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Declare that prompt positions `0..len` come from `seed`'s shared
    /// token stream (clamped to the prompt by the scheduler; see
    /// [`effective_prefix_len`]).
    pub fn with_shared_prefix(mut self, seed: u64, len: usize) -> RuntimeRequest {
        self.prefix = Some(SharedPrefix { seed, len });
        self
    }

    /// Degenerate lengths are normalized up-front (a zero-length prompt
    /// or output has no serving meaning), mirroring the policy layer's
    /// `.max(1)` convention.
    pub(crate) fn normalized(mut self) -> RuntimeRequest {
        self.prompt_len = self.prompt_len.max(1);
        self.output_len = self.output_len.max(1);
        self
    }
}

/// The prefix length the scheduler actually shares for a request:
/// the declared length, capped so the request keeps at least one own
/// prompt row, then rounded **down** to a whole number of pages (owner
/// pages must all be full for the composable layout; a zero result means
/// the request runs without a shared prefix).
pub fn effective_prefix_len(declared: usize, prompt_len: usize, page_size: usize) -> usize {
    let capped = declared.min(prompt_len.saturating_sub(1));
    capped - capped % page_size.max(1)
}

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded submission queue was full (backpressure).
    QueueFull,
    /// The request can never fit the KV pool, even running alone.
    Oversize,
    /// Shared-prefix requests are not supported on the tensor-parallel
    /// backend (prefix grouping assumes the single-shard executor), nor
    /// on the prefill-only / resumed migration legs (the exported
    /// snapshot would omit the owner-held prefix rows).
    PrefixUnsupported,
    /// A resumed request's [`KvSnapshot`] does not match this runtime's
    /// geometry (row count ≠ prompt length, KV width or storage dtype
    /// differs, or the payload length is inconsistent).
    SnapshotMismatch,
    /// The [`SubmitOptions`] combination has no meaning here: a token
    /// stream on a [`SubmitMode::PrefillOnly`] leg (which decodes
    /// nothing), or a migration leg handed to a cluster (which plans a
    /// request's legs itself).
    UnsupportedOptions,
}

/// Why a request was terminated before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelReason {
    /// The client called [`RequestHandle::cancel`].
    User,
    /// The request's deadline passed.
    Deadline,
    /// The client dropped its token-stream receiver mid-generation; the
    /// scheduler noticed the disconnect, stopped decoding, and freed the
    /// request's KV pages.
    StreamDropped,
    /// The runtime could not serve it (kernel error, un-fittable KV).
    Failed(String),
}

/// One item of a request's token-by-token stream (see
/// [`SubmitOptions::stream`]).
///
/// Tokens arrive in decode order through the request's bounded channel;
/// the terminal [`StreamItem::Done`] (or the channel closing) ends the
/// stream. The streamed rows are the same bits the terminal
/// [`CompletedRequest::outputs`] carries — streaming changes delivery,
/// never results.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// Decoded token `index`'s attention output row
    /// (`num_qo_heads * head_dim` floats).
    Token {
        /// Zero-based decode index of this token.
        index: usize,
        /// The token's attention output row.
        row: Vec<f32>,
    },
    /// Terminal event: the request's final outcome. Best-effort under a
    /// full channel — the authoritative end-of-stream signal is the
    /// channel closing, and the authoritative outcome is the
    /// [`RequestHandle`].
    Done(RequestOutcome),
}

/// A finished request: every decoded attention output row, plus the
/// request's latency samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// One attention output row (`num_qo_heads * head_dim` floats) per
    /// decoded token, in decode order.
    pub outputs: Vec<Vec<f32>>,
    /// Time to first token, seconds from submission.
    pub ttft: f64,
    /// Inter-token latencies, seconds (one per token after the first).
    pub itl: Vec<f64>,
    /// Times this request was preempted and later resumed.
    pub preemptions: usize,
}

/// Terminal state of a submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// All `output_len` tokens decoded.
    Completed(CompletedRequest),
    /// Never admitted.
    Rejected(RejectReason),
    /// Terminated after submission (user cancel, deadline, failure).
    Cancelled(CancelReason),
}

impl RequestOutcome {
    /// True for [`RequestOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestOutcome::Completed(_))
    }

    /// The completion record, if the request completed.
    pub fn completed(self) -> Option<CompletedRequest> {
        match self {
            RequestOutcome::Completed(c) => Some(c),
            _ => None,
        }
    }
}

/// How a submission traverses the request lifecycle: the normal full
/// prefill+decode run, or one of the two legs of a disaggregated
/// (prefill on one runtime, decode on another) request.
#[derive(Debug, Clone, Default)]
pub enum SubmitMode {
    /// Prefill then decode `output_len` tokens.
    #[default]
    Full,
    /// Run chunked prefill only; at the prefill/decode boundary export
    /// the request's KV rows as a [`KvSnapshot`] on its
    /// [`RequestHandle`], free its pages, and complete with zero outputs.
    PrefillOnly,
    /// Skip prefill: import the snapshot's KV rows at admission (no
    /// prefill compute) and decode exactly as if the request had
    /// prefilled here — bit-identical, because the snapshot carries the
    /// pool reader's dequantized rows and re-quantization round-trips.
    /// The snapshot must match the runtime's geometry (rows == normalized
    /// prompt length, same KV width and storage dtype) or the request is
    /// rejected with [`RejectReason::SnapshotMismatch`].
    Resume(KvSnapshot),
}

/// Per-submission options of [`crate::Runtime::submit_with`] (and of the
/// cluster's submit, which takes the same type).
///
/// Shared-prefix requests are only servable as [`SubmitMode::Full`] (on
/// a migration leg the owner-held prefix rows would be missing from the
/// export), and a `stream` on a [`SubmitMode::PrefillOnly`] leg is
/// rejected with [`RejectReason::UnsupportedOptions`] — that leg decodes
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// A caller-provided bounded token channel: each decoded row is
    /// delivered as [`StreamItem::Token`] as soon as its step retires,
    /// followed by a best-effort [`StreamItem::Done`]; the channel
    /// closing is the authoritative end-of-stream. A full channel stalls
    /// that request's decode (backpressure, counted in
    /// `RuntimeMetrics::stream_stalls`); a dropped receiver cancels the
    /// request with [`CancelReason::StreamDropped`].
    pub stream: Option<SyncSender<StreamItem>>,
    /// Which part of the lifecycle this submission runs.
    pub leg: SubmitMode,
}

/// Client-side handle to a submitted request — the one handle type of
/// the runtime, the cluster and the router's backends.
///
/// Exactly one [`RequestOutcome`] is delivered per submission — also for
/// rejected ones — so `submitted == completed + rejected + cancelled`
/// reconciles exactly over any set of handles. A
/// [`SubmitMode::PrefillOnly`] leg additionally exports a [`KvSnapshot`],
/// sent *before* the terminal outcome: once the outcome reads
/// `Completed`, [`RequestHandle::take_snapshot`] already returns it.
#[derive(Debug)]
pub struct RequestHandle {
    id: u64,
    cancel_flag: Arc<AtomicBool>,
    outcome: Receiver<RequestOutcome>,
    kv: Receiver<KvSnapshot>,
}

impl RequestHandle {
    /// A connected `(handle, serving end)` pair for request `id`.
    /// `stream` is the client's token channel, if it asked for one; it
    /// travels with the serving end until a runtime admits the request.
    pub fn pair(id: u64, stream: Option<SyncSender<StreamItem>>) -> (RequestHandle, ClientEnd) {
        let cancel_flag = Arc::new(AtomicBool::new(false));
        let (otx, orx) = mpsc::channel();
        let (ktx, krx) = mpsc::channel();
        (
            RequestHandle {
                id,
                cancel_flag: Arc::clone(&cancel_flag),
                outcome: orx,
                kv: krx,
            },
            ClientEnd {
                cancel: cancel_flag,
                outcome: otx,
                kv: ktx,
                stream,
            },
        )
    }

    /// The request id assigned by whoever accepted the submission.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ask for the request to be cancelled, wherever it currently is.
    /// Takes effect at the next scheduling step; the outcome is still
    /// delivered (as [`RequestOutcome::Cancelled`] unless the request
    /// already finished).
    pub fn cancel(&self) {
        self.cancel_flag.store(true, Ordering::Release);
    }

    /// Block until the outcome arrives.
    pub fn wait(self) -> RequestOutcome {
        self.outcome
            .recv()
            .unwrap_or(RequestOutcome::Cancelled(CancelReason::Failed(
                "shut down before delivering an outcome".into(),
            )))
    }

    /// Non-blocking poll for the outcome.
    pub fn try_wait(&self) -> Option<RequestOutcome> {
        self.outcome.try_recv().ok()
    }

    /// The KV snapshot a completed [`SubmitMode::PrefillOnly`] leg
    /// exported (non-blocking; `None` for every other leg and outcome).
    pub fn take_snapshot(&self) -> Option<KvSnapshot> {
        self.kv.try_recv().ok()
    }
}

/// The serving side of one submission: what a runtime's scheduler — or
/// a cluster engine in front of it — holds to observe the client's
/// cancel flag and resolve its [`RequestHandle`].
#[derive(Debug)]
pub struct ClientEnd {
    cancel: Arc<AtomicBool>,
    outcome: Sender<RequestOutcome>,
    kv: Sender<KvSnapshot>,
    stream: Option<SyncSender<StreamItem>>,
}

impl ClientEnd {
    /// True once the client called [`RequestHandle::cancel`].
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Hand the client's token channel to whoever decodes the request
    /// (a scheduler at admission; a cluster engine forwarding the
    /// submission to the replica that will decode it).
    pub fn take_stream(&mut self) -> Option<SyncSender<StreamItem>> {
        self.stream.take()
    }

    /// Export a prefill-only leg's KV. Must precede [`ClientEnd::deliver`].
    pub(crate) fn send_snapshot(&self, snap: KvSnapshot) {
        // The receiver may already be gone; the outcome still tells the
        // client what happened.
        let _ = self.kv.send(snap);
    }

    /// Resolve the handle. While the token channel is still here the
    /// request was never admitted and has streamed nothing, so the
    /// bounded channel has room for the terminal event unless the client
    /// already walked away — best-effort either way.
    pub fn deliver(&self, outcome: RequestOutcome) {
        if let Some(tx) = &self.stream {
            let _ = tx.try_send(StreamItem::Done(outcome.clone()));
        }
        // The client may have dropped its handle; that's its prerogative.
        let _ = self.outcome.send(outcome);
    }
}

// ---------------------------------------------------------------------------
// KV migration: exported snapshots.
// ---------------------------------------------------------------------------

/// A request's finished prefill KV state, exported from one runtime's
/// pool for re-import into another (disaggregated prefill/decode).
///
/// Rows are carried as full-width **f32** — exactly what the pool's
/// reader returns after dequantizing its storage dtype. Because the
/// reduced-precision codecs round-trip (`narrow(widen(x)) == x` for f16;
/// fp8's decoded values re-quantize to the same byte), importing these
/// rows into a pool of the same `kv_dtype` reproduces the source pool's
/// bytes bit-exactly, which is what keeps disaggregated decode
/// bit-identical to single-runtime execution.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSnapshot {
    /// The request's token-stream seed (identifies the KV contents).
    pub seed: u64,
    /// Number of KV rows (== the request's normalized prompt length).
    pub rows: usize,
    /// Row width in elements (`num_kv_heads * head_dim`).
    pub kv_width: usize,
    /// Storage dtype of the source pool — transfer cost is priced at
    /// this dtype, not at the f32 carrier width.
    pub kv_dtype: KvDtype,
    /// Key rows, row-major, `rows * kv_width` f32 values.
    pub k: Vec<f32>,
    /// Value rows, row-major, `rows * kv_width` f32 values.
    pub v: Vec<f32>,
}

impl KvSnapshot {
    /// KV pages this snapshot occupies under `page_size` rows per page.
    pub fn pages(&self, page_size: usize) -> usize {
        self.rows.div_ceil(page_size.max(1))
    }

    /// Bytes that actually cross the inter-replica link: both K and V
    /// planes at the *storage* dtype's element width (an fp8 pool
    /// migrates 4x fewer bytes than an f32 pool for the same rows).
    pub fn transfer_bytes(&self) -> usize {
        2 * self.rows * self.kv_width * self.kv_dtype.size_bytes()
    }
}

// ---------------------------------------------------------------------------
// Deterministic synthetic token streams.
// ---------------------------------------------------------------------------

/// SplitMix64-style finalizer over a (seed, stream, index) triple.
fn mix3_bits(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x2545_F491_4F6C_DD1D));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`mix3_bits`] mapped to roughly uniform `[-0.5, 0.5)`.
fn mix3(seed: u64, stream: u64, i: u64) -> f32 {
    ((mix3_bits(seed, stream, i) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// The K (or V) row for absolute position `pos` of a request's sequence.
///
/// Positions `0..prompt_len` are prompt tokens; positions `prompt_len +
/// t` are the generated tokens — both come from the same function, so
/// recompute-after-preemption and the sequential oracle regenerate the
/// exact rows the first pass wrote. `width` is `num_kv_heads * head_dim`.
pub fn kv_row(seed: u64, pos: usize, width: usize, value: bool) -> Vec<f32> {
    let stream = if value { 2 } else { 1 };
    (0..width)
        .map(|j| mix3(seed, stream, (pos * width + j) as u64))
        .collect()
}

/// The query row for absolute position `pos` (prefill queries the prompt
/// positions; decode step `t` queries position `prompt_len + t`).
/// `width` is `num_qo_heads * head_dim`.
pub fn q_row(seed: u64, pos: usize, width: usize) -> Vec<f32> {
    (0..width)
        .map(|j| mix3(seed, 3, (pos * width + j) as u64))
        .collect()
}

/// [`kv_row`] for a request with an *effective* shared prefix: positions
/// under `prefix.len` draw from the prefix stream, the rest from the
/// request's own. Query rows are always the request's own ([`q_row`]) —
/// sharing covers stored KV, not the live query.
pub fn request_kv_row(
    seed: u64,
    prefix: Option<SharedPrefix>,
    pos: usize,
    width: usize,
    value: bool,
) -> Vec<f32> {
    match prefix {
        Some(p) if pos < p.len => kv_row(p.seed, pos, width, value),
        _ => kv_row(seed, pos, width, value),
    }
}

/// Token id at position `i` of a shared prefix's stream — the key
/// sequence the radix tree indexes for `(seed, len)` prefixes. Drawn
/// from the same mixer as the embeddings, so distinct `(seed, i)` pairs
/// collide only with negligible probability.
pub fn prefix_token(seed: u64, i: usize) -> u32 {
    (mix3_bits(seed, 4, i as u64) >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministic_and_distinct() {
        let a = kv_row(7, 5, 16, false);
        assert_eq!(a, kv_row(7, 5, 16, false));
        assert_ne!(a, kv_row(7, 5, 16, true));
        assert_ne!(a, kv_row(7, 6, 16, false));
        assert_ne!(a, kv_row(8, 5, 16, false));
        assert_ne!(a[..], q_row(7, 5, 16)[..]);
        assert!(a.iter().all(|x| (-0.5..0.5).contains(x)));
    }

    #[test]
    fn normalization_floors_lengths() {
        let r = RuntimeRequest::new(0, 0, 1).normalized();
        assert_eq!((r.prompt_len, r.output_len), (1, 1));
    }

    #[test]
    fn effective_prefix_is_page_aligned_with_an_own_row() {
        // Declared 8, prompt 12, pages of 4: the full 8 fit.
        assert_eq!(effective_prefix_len(8, 12, 4), 8);
        // Prompt 9 must keep one own row: cap at 8, already aligned.
        assert_eq!(effective_prefix_len(9, 9, 4), 8);
        // Prompt exactly the prefix: cap at 7, round down to 4.
        assert_eq!(effective_prefix_len(8, 8, 4), 4);
        // Unaligned declarations round down.
        assert_eq!(effective_prefix_len(7, 100, 4), 4);
        assert_eq!(effective_prefix_len(3, 100, 4), 0);
        // Degenerate prompt / page size never underflow or divide by zero.
        assert_eq!(effective_prefix_len(8, 1, 4), 0);
        assert_eq!(effective_prefix_len(8, 0, 4), 0);
        assert_eq!(effective_prefix_len(8, 12, 0), 8);
    }

    #[test]
    fn prefix_rows_dispatch_by_position() {
        let p = SharedPrefix { seed: 42, len: 4 };
        for pos in 0..4 {
            assert_eq!(
                request_kv_row(7, Some(p), pos, 8, false),
                kv_row(42, pos, 8, false)
            );
        }
        for pos in 4..8 {
            assert_eq!(
                request_kv_row(7, Some(p), pos, 8, true),
                kv_row(7, pos, 8, true)
            );
        }
        assert_eq!(request_kv_row(7, None, 2, 8, false), kv_row(7, 2, 8, false));
    }

    #[test]
    fn prefix_tokens_are_deterministic_and_distinct() {
        let a: Vec<u32> = (0..64).map(|i| prefix_token(5, i)).collect();
        let b: Vec<u32> = (0..64).map(|i| prefix_token(5, i)).collect();
        assert_eq!(a, b);
        let c: Vec<u32> = (0..64).map(|i| prefix_token(6, i)).collect();
        assert_ne!(a, c);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64, "token stream has collisions");
    }
}
