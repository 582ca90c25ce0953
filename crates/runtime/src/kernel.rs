//! Executable kernel behaviours and the paper's special kernels.
//!
//! The graph (`tpdf_core::TpdfGraph`) says *when* a kernel may fire and
//! at which rates; a [`KernelBehavior`] says *what the firing computes*.
//! Applications register a behaviour per node name in a
//! [`KernelRegistry`]; nodes without a registered behaviour get the
//! built-in semantics:
//!
//! * **Select-Duplicate** kernels copy their input stream to every
//!   output selected by the current mode (speculation / forking — the
//!   copies are `Clone`s of [`Token`], so images are shared, not
//!   duplicated).
//! * **Transaction** kernels forward the tokens of the highest-priority
//!   input that participated in the firing; with `votes_required > 0`
//!   they first look for `votes_required` inputs that agree
//!   (redundancy with vote).
//! * **Regular** kernels and control actors forward their concatenated
//!   input tokens cyclically to each output (or emit [`Token::Unit`]
//!   markers when the firing consumed nothing), which keeps rate-only
//!   graphs — e.g. the Figure 2 running example — executable without any
//!   registration.
//!
//! # Writing a kernel
//!
//! The executor hands every firing its consumed tokens as borrowed
//! slabs popped from the input rings, and one empty arena-backed slab
//! per output port. [`FiringContext::produce`] gives a kernel both
//! without a copy: an [`InputView`] over every consumed token, port
//! after port (with typed accessors that fail the firing on a token of
//! the wrong kind), and an [`OutputWriter`] that pushes each produced
//! token straight into the output slabs. When the kernel returns, every
//! port is completed to its rate by cycling what was produced, or with
//! [`Token::Unit`] markers when nothing was — the same stream
//! [`FiringContext::fill_outputs_cycling`] writes from a finished slice.
//!
//! ```
//! use tpdf_apps::dsp::qpsk_demap;
//! use tpdf_runtime::{KernelRegistry, Token};
//!
//! let mut registry = KernelRegistry::new();
//! // Demap every consumed complex sample into two bit tokens.
//! registry.register_fn("QPSK", |ctx| {
//!     ctx.produce(|inputs, out| {
//!         for symbol in inputs.complex() {
//!             for bit in qpsk_demap(symbol?) {
//!                 out.push(Token::Byte(bit));
//!             }
//!         }
//!         Ok(())
//!     })
//! });
//! assert!(registry.get("QPSK").is_some());
//! ```

use crate::token::Token;
use crate::RuntimeError;
use std::collections::BTreeMap;
use std::sync::Arc;
use tpdf_apps::dsp::Complex;
use tpdf_core::mode::Mode;

/// The tokens one data-input port contributed to a firing.
///
/// `tokens` is one contiguous slab moved out of the channel ring as a
/// batch ([`crate::ring::RingBuffer::pop_into`]) — behaviours read it
/// as a slice, they never see per-element channel traffic.
#[derive(Debug, Clone)]
pub struct PortInput {
    /// Port index among the kernel's data inputs (declaration order).
    pub port: usize,
    /// Priority `α` of the port (higher wins Transaction selection).
    pub priority: u32,
    /// Channel label (e.g. `e6`), for diagnostics. Shared, not copied,
    /// so building a firing context costs no string allocation.
    pub channel: Arc<str>,
    /// The consumed tokens, oldest first.
    pub tokens: Vec<Token>,
}

impl PortInput {
    /// The consumed tokens as a slice.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }
}

/// One data-output port a firing must fill.
///
/// `tokens` becomes the slab pushed into the channel ring as one batch
/// ([`crate::ring::RingBuffer::push_from`]) when the firing completes.
#[derive(Debug, Clone)]
pub struct PortOutput {
    /// Port index among the kernel's data outputs (declaration order).
    pub port: usize,
    /// Channel label, for diagnostics. Shared, not copied.
    pub channel: Arc<str>,
    /// Number of tokens the firing must produce on this port.
    pub rate: u64,
    /// The produced tokens; must contain exactly `rate` tokens when the
    /// behaviour returns (pre-allocated to that capacity).
    pub tokens: Vec<Token>,
}

impl PortOutput {
    /// Replaces the port's tokens with clones of `slice` cycled to the
    /// required rate.
    pub fn write_cycled(&mut self, slice: &[Token]) {
        self.tokens.clear();
        write_cycled_into(&mut self.tokens, slice, self.rate);
    }
}

/// Everything a kernel behaviour sees and produces during one firing.
#[derive(Debug)]
pub struct FiringContext {
    /// Node name. Shared, not copied.
    pub node: Arc<str>,
    /// Global firing ordinal of this node (across iterations).
    pub ordinal: u64,
    /// The mode this firing executes in (from the control token, or
    /// [`Mode::WaitAll`] for unsteered kernels).
    pub mode: Mode,
    /// Data consumed, one entry per *selected* input port.
    pub inputs: Vec<PortInput>,
    /// Data to produce, one entry per output port of this firing.
    pub outputs: Vec<PortOutput>,
    /// Set by the executor when a real-time deadline forced this firing
    /// before any input was available.
    pub deadline_missed: bool,
    /// Set by the built-in Transaction behaviour when a vote could not
    /// reach `votes_required` agreeing inputs.
    pub vote_failed: bool,
    /// The mode this firing's control tokens carry, when the behaviour
    /// chose one itself (see [`FiringContext::set_mode`]). `None` lets
    /// the executor compute the mode from the configured
    /// [`tpdf_core::control::ModeSelector`].
    pub emitted_mode: Option<Mode>,
}

impl FiringContext {
    /// The input entry of data port `port`, if it participated in this
    /// firing.
    pub fn input(&self, port: usize) -> Option<&PortInput> {
        self.inputs.iter().find(|p| p.port == port)
    }

    /// The token slab of data port `port`; empty when the port did not
    /// participate in this firing. Zero-copy: a slice view of the slab
    /// popped from the channel ring.
    pub fn input_tokens(&self, port: usize) -> &[Token] {
        self.input(port).map(|p| p.tokens.as_slice()).unwrap_or(&[])
    }

    /// A borrowed view over every consumed token, port after port,
    /// oldest first.
    pub fn consumed(&self) -> InputView<'_> {
        InputView {
            node: &self.node,
            ports: &self.inputs,
        }
    }

    /// Runs `kernel` with a view of the consumed tokens and a writer
    /// into the output slabs, then completes every port to its rate:
    /// the production is cycled, exactly as
    /// [`FiringContext::fill_outputs_cycling`] cycles a finished slice,
    /// or [`Token::Unit`] markers fill the port when nothing was
    /// produced. An error from `kernel` is returned as is.
    pub fn produce<F>(&mut self, kernel: F) -> Result<(), RuntimeError>
    where
        F: FnOnce(InputView<'_>, &mut OutputWriter<'_>) -> Result<(), RuntimeError>,
    {
        let inputs = InputView {
            node: &self.node,
            ports: &self.inputs,
        };
        for out in &mut self.outputs {
            out.tokens.clear();
        }
        let mut writer = OutputWriter {
            ports: &mut self.outputs,
            produced: 0,
        };
        kernel(inputs, &mut writer)?;
        writer.finish();
        Ok(())
    }

    /// The scalar views of every consumed token, port after port, oldest
    /// first — the inputs a data-dependent mode selector reacts to.
    pub fn input_scalars(&self) -> Vec<i64> {
        let mut out = Vec::new();
        self.input_scalars_into(&mut out);
        out
    }

    /// Appends the scalar views of every consumed token to `out` — the
    /// allocation-free form of [`FiringContext::input_scalars`] the
    /// executor feeds from a reused per-worker buffer.
    pub fn input_scalars_into(&self, out: &mut Vec<i64>) {
        for p in &self.inputs {
            out.extend(p.tokens.iter().map(Token::as_scalar));
        }
    }

    /// Makes this firing's control tokens carry `mode`, overriding the
    /// executor's configured mode selector. Only meaningful for control
    /// actors (nodes with control outputs); cross-validation against
    /// `tpdf-sim` requires an equivalent selector + value trace on the
    /// simulation side.
    pub fn set_mode(&mut self, mode: Mode) {
        self.emitted_mode = Some(mode);
    }

    /// Fills every output port by cycling through `source` (or with
    /// [`Token::Unit`] markers when `source` is empty).
    pub fn fill_outputs_cycling(&mut self, source: &[Token]) {
        for out in &mut self.outputs {
            out.write_cycled(source);
        }
    }

    /// Fills every output port by cycling through the concatenated
    /// input stream *without materialising the concatenation* — the
    /// built-in forwarding semantics on the slab API.
    pub fn fill_outputs_from_inputs(&mut self) {
        let total: usize = self.inputs.iter().map(|p| p.tokens.len()).sum();
        let (inputs, outputs) = (&self.inputs, &mut self.outputs);
        // One participating port is the overwhelmingly common shape;
        // it cycles through `write_cycled_into`'s slice fast path
        // instead of the per-token chained iterator.
        let single = match inputs.as_slice() {
            [only] if only.tokens.len() == total => Some(only.tokens.as_slice()),
            _ => None,
        };
        for out in outputs.iter_mut() {
            out.tokens.clear();
            if total == 0 {
                out.tokens.resize(out.rate as usize, Token::Unit);
            } else if let Some(source) = single {
                write_cycled_into(&mut out.tokens, source, out.rate);
            } else {
                out.tokens.extend(
                    inputs
                        .iter()
                        .flat_map(|p| p.tokens.iter())
                        .cycle()
                        .take(out.rate as usize)
                        .cloned(),
                );
            }
        }
    }
}

/// A borrowed view over every token one firing consumed, port after
/// port, oldest first (see [`FiringContext::consumed`]). Reading it
/// copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct InputView<'a> {
    node: &'a str,
    ports: &'a [PortInput],
}

impl<'a> InputView<'a> {
    /// Every consumed token.
    pub fn tokens(self) -> impl Iterator<Item = &'a Token> + Clone {
        self.slabs().flatten()
    }

    /// The consumed slab of every participating port.
    pub fn slabs(self) -> impl Iterator<Item = &'a [Token]> + Clone {
        self.ports.iter().map(|p| p.tokens.as_slice())
    }

    /// The complex payload of every consumed token. A token of another
    /// kind yields [`RuntimeError::KernelFailed`] naming the node and
    /// the token.
    pub fn complex(self) -> impl Iterator<Item = Result<Complex, RuntimeError>> + 'a {
        self.typed(Token::as_complex, "a complex sample")
    }

    /// The floating-point payload of every consumed token (the FM-radio
    /// audio stream). A token of another kind yields
    /// [`RuntimeError::KernelFailed`] naming the node and the token.
    pub fn floats(self) -> impl Iterator<Item = Result<f64, RuntimeError>> + 'a {
        self.typed(Token::as_float, "an audio sample")
    }

    fn typed<T: 'a>(
        self,
        payload: fn(&Token) -> Option<T>,
        expected: &'static str,
    ) -> impl Iterator<Item = Result<T, RuntimeError>> + 'a {
        self.tokens().map(move |token| {
            payload(token).ok_or_else(|| RuntimeError::KernelFailed {
                node: self.node.to_string(),
                message: format!("expected {expected}, got {token}"),
            })
        })
    }
}

/// Writes a firing's production straight into its output slabs (see
/// [`FiringContext::produce`]).
#[derive(Debug)]
pub struct OutputWriter<'a> {
    ports: &'a mut [PortOutput],
    produced: usize,
}

impl OutputWriter<'_> {
    /// Appends the next produced token to every port still below its
    /// rate. Tokens past a port's rate are not written to it.
    pub fn push(&mut self, token: Token) {
        self.produced += 1;
        let mut open = self
            .ports
            .iter_mut()
            .filter(|out| (out.tokens.len() as u64) < out.rate)
            .peekable();
        while let Some(out) = open.next() {
            if open.peek().is_none() {
                // The last port takes the token itself.
                out.tokens.push(token);
                return;
            }
            out.tokens.push(token.clone());
        }
    }

    /// Completes every port to its rate. A port below its rate holds
    /// the whole production, so cycling it repeats its own prefix.
    fn finish(self) {
        for out in self.ports.iter_mut() {
            let rate = out.rate as usize;
            if self.produced == 0 {
                out.tokens.resize(rate, Token::Unit);
                continue;
            }
            while out.tokens.len() < rate {
                let round = self.produced.min(rate - out.tokens.len());
                out.tokens.extend_from_within(..round);
            }
        }
    }
}

/// Appends `rate` tokens to `out` by cycling through `source`;
/// [`Token::Unit`] markers when `source` is empty. Whole-slice rounds
/// go through `extend_from_slice` (a clone-from-slice specialisation),
/// only the final partial round clones token by token.
fn write_cycled_into(out: &mut Vec<Token>, source: &[Token], rate: u64) {
    let rate = rate as usize;
    if source.is_empty() {
        out.resize(out.len() + rate, Token::Unit);
        return;
    }
    out.reserve(rate);
    let mut remaining = rate;
    while remaining >= source.len() {
        out.extend_from_slice(source);
        remaining -= source.len();
    }
    out.extend_from_slice(&source[..remaining]);
}

/// What a node computes when it fires.
pub trait KernelBehavior: Send + Sync {
    /// Executes one firing: reads `ctx.inputs`, fills `ctx.outputs`.
    ///
    /// # Errors
    ///
    /// Implementations report unrecoverable application errors as
    /// [`RuntimeError::KernelFailed`]; the executor aborts the run.
    fn fire(&self, ctx: &mut FiringContext) -> Result<(), RuntimeError>;
}

/// Wraps a closure as a [`KernelBehavior`].
struct FnBehavior<F>(F);

impl<F> KernelBehavior for FnBehavior<F>
where
    F: Fn(&mut FiringContext) -> Result<(), RuntimeError> + Send + Sync,
{
    fn fire(&self, ctx: &mut FiringContext) -> Result<(), RuntimeError> {
        (self.0)(ctx)
    }
}

/// Maps node names to their executable behaviour.
///
/// Behaviours are stored behind [`Arc`], so cloning a registry is
/// cheap (it shares the behaviours) — the persistent
/// [`crate::pool::ExecutorPool`] clones the registry into each
/// submitted run so its long-lived workers never borrow caller state.
#[derive(Default, Clone)]
pub struct KernelRegistry {
    behaviors: BTreeMap<String, Arc<dyn KernelBehavior>>,
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("nodes", &self.behaviors.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl KernelRegistry {
    /// Creates an empty registry (every node gets built-in semantics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a behaviour for the named node.
    pub fn register(&mut self, node: impl Into<String>, behavior: Box<dyn KernelBehavior>) {
        self.behaviors.insert(node.into(), Arc::from(behavior));
    }

    /// Registers a closure as the behaviour of the named node.
    pub fn register_fn<F>(&mut self, node: impl Into<String>, f: F)
    where
        F: Fn(&mut FiringContext) -> Result<(), RuntimeError> + Send + Sync + 'static,
    {
        self.register(node, Box::new(FnBehavior(f)));
    }

    /// The behaviour registered for `node`, if any.
    pub fn get(&self, node: &str) -> Option<&dyn KernelBehavior> {
        self.behaviors.get(node).map(|b| b.as_ref())
    }

    /// Number of registered behaviours.
    pub fn len(&self) -> usize {
        self.behaviors.len()
    }

    /// Returns `true` when no behaviour is registered.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
    }
}

/// Built-in semantics of the Select-Duplicate kernel: every selected
/// output receives a copy of the input stream.
pub(crate) fn fire_select_duplicate(ctx: &mut FiringContext) {
    ctx.fill_outputs_from_inputs();
}

/// Built-in semantics of the Transaction kernel: vote when configured,
/// then forward the best participating input.
pub(crate) fn fire_transaction(ctx: &mut FiringContext, votes_required: u32) {
    if votes_required > 0 {
        match winning_vote(&ctx.inputs, votes_required) {
            Some(tokens) => {
                ctx.fill_outputs_cycling(&tokens);
                return;
            }
            None => ctx.vote_failed = true,
        }
    }
    // No vote (or a failed one): forward the highest-priority
    // participating input, straight out of its slab — the hot path of
    // every Transaction firing allocates nothing.
    let best = ctx
        .inputs
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.priority)
        .map(|(index, _)| index);
    let (inputs, outputs) = (&ctx.inputs, &mut ctx.outputs);
    let source: &[Token] = best.map(|i| inputs[i].tokens.as_slice()).unwrap_or(&[]);
    for out in outputs.iter_mut() {
        out.tokens.clear();
        write_cycled_into(&mut out.tokens, source, out.rate);
    }
}

/// The token stream shared by at least `votes_required` inputs, if any
/// (ties broken towards higher priority).
fn winning_vote(inputs: &[PortInput], votes_required: u32) -> Option<Vec<Token>> {
    let mut candidates: Vec<&PortInput> = inputs.iter().collect();
    candidates.sort_by_key(|p| std::cmp::Reverse(p.priority));
    for candidate in &candidates {
        let agreeing = inputs
            .iter()
            .filter(|other| other.tokens == candidate.tokens)
            .count() as u32;
        if agreeing >= votes_required {
            return Some(candidate.tokens.clone());
        }
    }
    None
}

/// Built-in semantics of regular kernels and control actors: forward
/// inputs cyclically (unit markers when nothing was consumed).
pub(crate) fn fire_default(ctx: &mut FiringContext) {
    ctx.fill_outputs_from_inputs();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(inputs: Vec<PortInput>, rates: &[u64]) -> FiringContext {
        FiringContext {
            node: Arc::from("t"),
            ordinal: 0,
            mode: Mode::WaitAll,
            inputs,
            outputs: rates
                .iter()
                .enumerate()
                .map(|(port, &rate)| PortOutput {
                    port,
                    channel: Arc::from(format!("o{port}").as_str()),
                    rate,
                    tokens: Vec::new(),
                })
                .collect(),
            deadline_missed: false,
            vote_failed: false,
            emitted_mode: None,
        }
    }

    fn port(port: usize, priority: u32, tokens: Vec<Token>) -> PortInput {
        PortInput {
            port,
            priority,
            channel: Arc::from(format!("i{port}").as_str()),
            tokens,
        }
    }

    #[test]
    fn input_slices_are_zero_copy_views() {
        let ctx = ctx_with(vec![port(1, 0, vec![Token::Int(4), Token::Int(5)])], &[1]);
        assert_eq!(
            ctx.input_tokens(1),
            &[Token::Int(4), Token::Int(5)],
            "selected port exposes its slab"
        );
        assert!(ctx.input_tokens(0).is_empty(), "unselected port is empty");
        assert_eq!(ctx.input(1).unwrap().tokens(), ctx.input_tokens(1));
    }

    #[test]
    fn select_duplicate_copies_to_every_output() {
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(7)])], &[1, 1, 2]);
        fire_select_duplicate(&mut ctx);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(7)]);
        assert_eq!(ctx.outputs[1].tokens, vec![Token::Int(7)]);
        assert_eq!(ctx.outputs[2].tokens, vec![Token::Int(7), Token::Int(7)]);
    }

    #[test]
    fn transaction_forwards_highest_priority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 1, vec![Token::Int(1)]),
                port(1, 3, vec![Token::Int(3)]),
                port(2, 2, vec![Token::Int(2)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 0);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(3)]);
        assert!(!ctx.vote_failed);
    }

    #[test]
    fn transaction_vote_picks_majority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 3, vec![Token::Int(9)]), // outlier with top priority
                port(1, 2, vec![Token::Int(5)]),
                port(2, 1, vec![Token::Int(5)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 2);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(5)]);
        assert!(!ctx.vote_failed);
    }

    #[test]
    fn transaction_vote_failure_falls_back_to_priority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 1, vec![Token::Int(1)]),
                port(1, 2, vec![Token::Int(2)]),
                port(2, 3, vec![Token::Int(3)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 2);
        assert!(ctx.vote_failed);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(3)]);
    }

    #[test]
    fn transaction_with_no_inputs_emits_unit_markers() {
        let mut ctx = ctx_with(Vec::new(), &[2]);
        fire_transaction(&mut ctx, 0);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Unit, Token::Unit]);
    }

    #[test]
    fn default_forwards_cyclically() {
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(1), Token::Int(2)])], &[5]);
        fire_default(&mut ctx);
        assert_eq!(
            ctx.outputs[0].tokens,
            vec![
                Token::Int(1),
                Token::Int(2),
                Token::Int(1),
                Token::Int(2),
                Token::Int(1)
            ]
        );
    }

    #[test]
    fn input_scalars_and_mode_override() {
        let mut ctx = ctx_with(
            vec![
                port(0, 0, vec![Token::Int(4), Token::Unit]),
                port(1, 0, vec![Token::Byte(2)]),
            ],
            &[1],
        );
        assert_eq!(ctx.input_scalars(), vec![4, 0, 2]);
        assert_eq!(ctx.emitted_mode, None);
        ctx.set_mode(Mode::SelectOne(1));
        assert_eq!(ctx.emitted_mode, Some(Mode::SelectOne(1)));
    }

    #[test]
    fn writer_equals_fill_outputs_cycling() {
        // One port, then several of different rates (one of them 0):
        // productions empty, shorter than, equal to and longer than
        // each rate.
        for rates in [&[4u64][..], &[3, 5, 0, 1]] {
            for produced in [0, 1, 2, 3, 4, 5, 7] {
                let source: Vec<Token> = (0..produced).map(Token::Int).collect();
                let mut expected = ctx_with(Vec::new(), rates);
                expected.fill_outputs_cycling(&source);
                let mut written = ctx_with(Vec::new(), rates);
                written
                    .produce(|_, out| {
                        source.iter().for_each(|t| out.push(t.clone()));
                        Ok(())
                    })
                    .unwrap();
                for (want, got) in expected.outputs.iter().zip(&written.outputs) {
                    assert_eq!(
                        got.tokens, want.tokens,
                        "{produced} tokens into rates {rates:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn consumed_view_reads_every_port_in_order_and_checks_kinds() {
        let sample = Complex::new(1.0, -1.0);
        let mut ctx = ctx_with(
            vec![
                port(0, 0, vec![Token::Complex(sample)]),
                port(2, 0, vec![Token::Float(0.5), Token::Complex(sample)]),
            ],
            &[1],
        );
        let view = ctx.consumed();
        assert_eq!(view.tokens().count(), 3);
        let complex: Vec<_> = view.complex().collect();
        assert_eq!(complex[0], Ok(sample));
        assert_eq!(
            complex[1],
            Err(RuntimeError::KernelFailed {
                node: "t".to_string(),
                message: "expected a complex sample, got 0.5".to_string(),
            })
        );
        assert_eq!(complex[2], Ok(sample));
        assert_eq!(view.floats().filter(Result::is_ok).count(), 1);
        // A failing kernel's error comes back unchanged.
        let failed = ctx.produce(|inputs, _| inputs.complex().try_for_each(|c| c.map(drop)));
        assert!(matches!(failed, Err(RuntimeError::KernelFailed { .. })));
    }

    #[test]
    fn registry_round_trip() {
        let mut registry = KernelRegistry::new();
        assert!(registry.is_empty());
        registry.register_fn("a", |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(42)]);
            Ok(())
        });
        assert_eq!(registry.len(), 1);
        assert!(registry.get("a").is_some());
        assert!(registry.get("b").is_none());
        let mut ctx = ctx_with(Vec::new(), &[1]);
        registry.get("a").unwrap().fire(&mut ctx).unwrap();
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(42)]);
        assert!(format!("{registry:?}").contains("a"));
    }
}
