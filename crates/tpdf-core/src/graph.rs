//! TPDF graph representation and builder (Definition 2 of the paper).

use crate::actors::KernelKind;
use crate::rate::RateSeq;
use crate::TpdfError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tpdf_symexpr::Binding;

/// Identifier of a node (kernel or control actor) in a [`TpdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a channel in a [`TpdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether a node is a computation kernel (`K` in Definition 2) or a
/// control actor (`G`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeClass {
    /// A computation kernel of the given [`KernelKind`].
    Kernel(KernelKind),
    /// A control actor: fires in a dataflow way and emits control tokens
    /// on its control output channels.
    Control,
}

impl NodeClass {
    /// Returns `true` for control actors.
    pub fn is_control(&self) -> bool {
        matches!(self, NodeClass::Control)
    }

    /// Returns `true` for kernels.
    pub fn is_kernel(&self) -> bool {
        matches!(self, NodeClass::Kernel(_))
    }
}

/// Whether a channel carries data tokens or control tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Ordinary FIFO data channel.
    Data,
    /// Control channel; must start from a control actor and ends at a
    /// kernel's (unique) control port.
    Control,
}

/// A node of a TPDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpdfNode {
    /// Unique human-readable name.
    pub name: String,
    /// Kernel or control actor.
    pub class: NodeClass,
    /// Execution time of one firing in virtual time units (used by
    /// schedulers and the simulator).
    pub execution_time: u64,
}

impl TpdfNode {
    /// Returns `true` if the node is a control actor.
    pub fn is_control(&self) -> bool {
        self.class.is_control()
    }

    /// Returns the kernel kind, or `None` for control actors.
    pub fn kernel_kind(&self) -> Option<&KernelKind> {
        match &self.class {
            NodeClass::Kernel(k) => Some(k),
            NodeClass::Control => None,
        }
    }
}

/// A channel (directed edge) of a TPDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpdfChannel {
    /// Producing node.
    pub source: NodeId,
    /// Consuming node.
    pub target: NodeId,
    /// Symbolic cyclic production rate sequence of the source.
    pub production: RateSeq,
    /// Symbolic cyclic consumption rate sequence of the target.
    pub consumption: RateSeq,
    /// Initial tokens (`φ*` in Definition 2).
    pub initial_tokens: u64,
    /// Data or control channel.
    pub class: ChannelClass,
    /// Priority `α` of the target (input) port; higher wins in
    /// [`crate::mode::Mode::HighestPriority`] selection.
    pub priority: u32,
    /// Label such as `e5`.
    pub label: String,
}

impl TpdfChannel {
    /// Returns `true` for control channels.
    pub fn is_control(&self) -> bool {
        self.class == ChannelClass::Control
    }
}

/// A Transaction Parameterized Dataflow graph.
///
/// Built with [`TpdfGraphBuilder`]; analysed with
/// [`crate::analysis::analyze`].
///
/// # Examples
///
/// ```
/// use tpdf_core::prelude::*;
///
/// # fn main() -> Result<(), tpdf_core::TpdfError> {
/// let g = TpdfGraph::builder()
///     .parameter("p")
///     .kernel("A")
///     .kernel("B")
///     .channel("A", "B", RateSeq::param("p"), RateSeq::constant(1), 0)
///     .build()?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.parameters(), &["p".to_string()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpdfGraph {
    nodes: Vec<TpdfNode>,
    channels: Vec<TpdfChannel>,
    names: BTreeMap<String, NodeId>,
    parameters: Vec<String>,
}

impl TpdfGraph {
    /// Creates a new [`TpdfGraphBuilder`].
    pub fn builder() -> TpdfGraphBuilder {
        TpdfGraphBuilder::new()
    }

    /// Number of nodes (kernels + control actors).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The declared integer parameters of the graph.
    pub fn parameters(&self) -> &[String] {
        &self.parameters
    }

    /// Returns a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &TpdfNode {
        &self.nodes[id.0]
    }

    /// Returns a channel by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &TpdfChannel {
        &self.channels[id.0]
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &TpdfNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &TpdfChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// Iterates over the control actors of the graph.
    ///
    /// [`KernelKind::Clock`] watchdogs are included: the paper introduces
    /// the clock as "a new type of control clock" whose timeouts are
    /// delivered as control tokens, so for every structural and safety
    /// purpose it acts as a control actor.
    pub fn control_actors(&self) -> impl Iterator<Item = (NodeId, &TpdfNode)> {
        self.nodes()
            .filter(|(_, n)| n.is_control() || matches!(n.kernel_kind(), Some(k) if k.is_clock()))
    }

    /// Channels produced by `node` (data and control).
    pub fn output_channels(&self, node: NodeId) -> impl Iterator<Item = (ChannelId, &TpdfChannel)> {
        self.channels().filter(move |(_, c)| c.source == node)
    }

    /// Channels consumed by `node` (data and control).
    pub fn input_channels(&self, node: NodeId) -> impl Iterator<Item = (ChannelId, &TpdfChannel)> {
        self.channels().filter(move |(_, c)| c.target == node)
    }

    /// Data channels consumed by `node`, in declaration order (the port
    /// index used by [`crate::mode::Mode`] selection follows this order).
    pub fn data_input_channels(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (ChannelId, &TpdfChannel)> {
        self.input_channels(node)
            .filter(|(_, c)| c.class == ChannelClass::Data)
    }

    /// Data channels produced by `node`, in declaration order.
    pub fn data_output_channels(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (ChannelId, &TpdfChannel)> {
        self.output_channels(node)
            .filter(|(_, c)| c.class == ChannelClass::Data)
    }

    /// The control port of a kernel: the unique incoming control channel,
    /// if any.
    pub fn control_port(&self, node: NodeId) -> Option<ChannelId> {
        self.input_channels(node)
            .find(|(_, c)| c.is_control())
            .map(|(id, _)| id)
    }

    /// Direct predecessors of a node (`prec` in Definition 3).
    pub fn predecessors(&self, node: NodeId) -> BTreeSet<NodeId> {
        self.input_channels(node).map(|(_, c)| c.source).collect()
    }

    /// Direct successors of a node (`succ` in Definition 3).
    pub fn successors(&self, node: NodeId) -> BTreeSet<NodeId> {
        self.output_channels(node).map(|(_, c)| c.target).collect()
    }

    /// Returns `true` if the graph is weakly connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for c in &self.channels {
                let (a, b) = (c.source.0, c.target.0);
                if a == i && !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
                if b == i && !seen[a] {
                    seen[a] = true;
                    stack.push(a);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Converts the graph to a plain CSDF graph under a concrete
    /// parameter binding, keeping *all* channels (the "fully connected"
    /// view used by the rate-consistency analysis and by the CSDF
    /// baseline comparison of Figure 8).
    ///
    /// Control channels become ordinary data channels; the dynamic
    /// topology of TPDF is intentionally *not* applied, which is exactly
    /// what a CSDF implementation of the same application has to do.
    ///
    /// # Errors
    ///
    /// Returns an error if a rate does not evaluate to a non-negative
    /// integer under `binding`, or if the resulting CSDF graph is
    /// malformed.
    pub fn to_csdf(&self, binding: &Binding) -> Result<tpdf_csdf::CsdfGraph, TpdfError> {
        let phases = crate::consistency::node_phases(self);
        let mut b = tpdf_csdf::CsdfGraph::builder();
        for (id, n) in self.nodes() {
            // The CSDF actor's phase count must cover the longest cyclic
            // rate sequence attached to the node.
            let times = vec![n.execution_time.max(1); phases[id.0] as usize];
            b = b.actor(&n.name, &times);
        }
        for (_, c) in self.channels() {
            // Expand each rate sequence to the phase count of the actor
            // executing it, so the CSDF cyclic totals match TPDF's.
            let prod_len = phases[c.source.0];
            let cons_len = phases[c.target.0];
            let prod: Vec<u64> = (0..prod_len)
                .map(|i| c.production.concrete(i, binding))
                .collect::<Result<_, _>>()?;
            let cons: Vec<u64> = (0..cons_len)
                .map(|i| c.consumption.concrete(i, binding))
                .collect::<Result<_, _>>()?;
            b = b.channel(
                &self.node(c.source).name,
                &self.node(c.target).name,
                &prod,
                &cons,
                c.initial_tokens,
            );
        }
        b.build()
            .map_err(|e| TpdfError::Binding(format!("CSDF conversion failed: {e}")))
    }
}

/// Builder for [`TpdfGraph`].
#[derive(Debug, Default, Clone)]
pub struct TpdfGraphBuilder {
    nodes: Vec<TpdfNode>,
    names: BTreeMap<String, NodeId>,
    channels: Vec<PendingChannel>,
    parameters: Vec<String>,
    error: Option<TpdfError>,
}

#[derive(Debug, Clone)]
struct PendingChannel {
    source: String,
    target: String,
    production: RateSeq,
    consumption: RateSeq,
    initial_tokens: u64,
    class: ChannelClass,
    priority: u32,
}

impl TpdfGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an integer parameter of the graph (e.g. `p`, `beta`).
    pub fn parameter(mut self, name: &str) -> Self {
        if !self.parameters.iter().any(|p| p == name) {
            self.parameters.push(name.to_string());
        }
        self
    }

    fn add_node(&mut self, name: &str, class: NodeClass, execution_time: u64) {
        if self.error.is_some() {
            return;
        }
        if self.names.contains_key(name) {
            self.error = Some(TpdfError::DuplicateNode(name.to_string()));
            return;
        }
        let id = NodeId(self.nodes.len());
        self.names.insert(name.to_string(), id);
        self.nodes.push(TpdfNode {
            name: name.to_string(),
            class,
            execution_time,
        });
    }

    /// Adds a regular kernel with unit execution time.
    pub fn kernel(mut self, name: &str) -> Self {
        self.add_node(name, NodeClass::Kernel(KernelKind::Regular), 1);
        self
    }

    /// Adds a kernel of a specific [`KernelKind`] and execution time.
    pub fn kernel_with(mut self, name: &str, kind: KernelKind, execution_time: u64) -> Self {
        self.add_node(name, NodeClass::Kernel(kind), execution_time);
        self
    }

    /// Adds a control actor with unit execution time.
    pub fn control(mut self, name: &str) -> Self {
        self.add_node(name, NodeClass::Control, 1);
        self
    }

    /// Adds a control actor with a specific execution time.
    pub fn control_with(mut self, name: &str, execution_time: u64) -> Self {
        self.add_node(name, NodeClass::Control, execution_time);
        self
    }

    /// Adds a data channel.
    pub fn channel(
        self,
        source: &str,
        target: &str,
        production: impl Into<RateSeq>,
        consumption: impl Into<RateSeq>,
        initial_tokens: u64,
    ) -> Self {
        self.channel_with_priority(source, target, production, consumption, initial_tokens, 0)
    }

    /// Adds a data channel whose target port has the given priority `α`.
    pub fn channel_with_priority(
        mut self,
        source: &str,
        target: &str,
        production: impl Into<RateSeq>,
        consumption: impl Into<RateSeq>,
        initial_tokens: u64,
        priority: u32,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        self.channels.push(PendingChannel {
            source: source.to_string(),
            target: target.to_string(),
            production: production.into(),
            consumption: consumption.into(),
            initial_tokens,
            class: ChannelClass::Data,
            priority,
        });
        self
    }

    /// Adds a control channel from a control actor to a kernel's control
    /// port.
    pub fn control_channel(
        mut self,
        source: &str,
        target: &str,
        production: impl Into<RateSeq>,
        consumption: impl Into<RateSeq>,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        self.channels.push(PendingChannel {
            source: source.to_string(),
            target: target.to_string(),
            production: production.into(),
            consumption: consumption.into(),
            initial_tokens: 0,
            class: ChannelClass::Control,
            priority: u32::MAX,
        });
        self
    }

    /// Finalises the graph, validating the structural rules of
    /// Definition 2.
    ///
    /// # Errors
    ///
    /// * [`TpdfError::EmptyGraph`], [`TpdfError::DuplicateNode`],
    ///   [`TpdfError::UnknownNode`] for structural problems;
    /// * [`TpdfError::InvalidControlChannel`] if a control channel does
    ///   not originate from a control actor;
    /// * [`TpdfError::MultipleControlPorts`] if a kernel has more than
    ///   one incoming control channel.
    pub fn build(self) -> Result<TpdfGraph, TpdfError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.nodes.is_empty() {
            return Err(TpdfError::EmptyGraph);
        }
        let mut channels = Vec::with_capacity(self.channels.len());
        for (i, pc) in self.channels.into_iter().enumerate() {
            let source = *self
                .names
                .get(&pc.source)
                .ok_or_else(|| TpdfError::UnknownNode(pc.source.clone()))?;
            let target = *self
                .names
                .get(&pc.target)
                .ok_or_else(|| TpdfError::UnknownNode(pc.target.clone()))?;
            let label = format!("e{}", i + 1);
            let source_node = &self.nodes[source.0];
            let source_is_clock = matches!(source_node.kernel_kind(), Some(k) if k.is_clock());
            if pc.class == ChannelClass::Control && !source_node.is_control() && !source_is_clock {
                return Err(TpdfError::InvalidControlChannel {
                    channel: label,
                    source: source_node.name.clone(),
                });
            }
            channels.push(TpdfChannel {
                source,
                target,
                production: pc.production,
                consumption: pc.consumption,
                initial_tokens: pc.initial_tokens,
                class: pc.class,
                priority: pc.priority,
                label,
            });
        }
        // At most one control port per kernel (paper's simplifying
        // assumption in Section II-B).
        for (i, node) in self.nodes.iter().enumerate() {
            let count = channels
                .iter()
                .filter(|c| c.target == NodeId(i) && c.is_control())
                .count();
            if count > 1 {
                return Err(TpdfError::MultipleControlPorts(node.name.clone()));
            }
        }
        Ok(TpdfGraph {
            nodes: self.nodes,
            channels,
            names: self.names,
            parameters: self.parameters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdf_symexpr::Poly;

    fn tiny() -> TpdfGraph {
        TpdfGraph::builder()
            .parameter("p")
            .kernel("A")
            .kernel("B")
            .control("C")
            .channel("A", "B", RateSeq::param("p"), RateSeq::constant(1), 0)
            .channel("B", "C", RateSeq::constant(1), RateSeq::constant(2), 0)
            .control_channel("C", "B", RateSeq::constant(1), RateSeq::constant(1))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_basics() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.channel_count(), 3);
        assert_eq!(g.parameters(), &["p".to_string()]);
        assert!(g.is_connected());
        let b = g.node_by_name("B").unwrap();
        assert_eq!(g.control_port(b), Some(ChannelId(2)));
        let a = g.node_by_name("A").unwrap();
        assert_eq!(g.control_port(a), None);
        assert_eq!(g.control_actors().count(), 1);
        assert_eq!(g.data_input_channels(b).count(), 1);
        assert_eq!(g.predecessors(b).len(), 2);
        assert_eq!(g.successors(b).len(), 1);
    }

    #[test]
    fn duplicate_parameter_ignored() {
        let g = TpdfGraph::builder()
            .parameter("p")
            .parameter("p")
            .kernel("A")
            .build()
            .unwrap();
        assert_eq!(g.parameters().len(), 1);
    }

    #[test]
    fn builder_errors() {
        assert!(matches!(
            TpdfGraph::builder().build(),
            Err(TpdfError::EmptyGraph)
        ));
        assert!(matches!(
            TpdfGraph::builder().kernel("A").kernel("A").build(),
            Err(TpdfError::DuplicateNode(_))
        ));
        assert!(matches!(
            TpdfGraph::builder()
                .kernel("A")
                .channel("A", "Z", RateSeq::constant(1), RateSeq::constant(1), 0)
                .build(),
            Err(TpdfError::UnknownNode(_))
        ));
        // Control channel from a kernel is invalid.
        assert!(matches!(
            TpdfGraph::builder()
                .kernel("A")
                .kernel("B")
                .control_channel("A", "B", RateSeq::constant(1), RateSeq::constant(1))
                .build(),
            Err(TpdfError::InvalidControlChannel { .. })
        ));
        // Two control ports on one kernel are invalid.
        assert!(matches!(
            TpdfGraph::builder()
                .control("C1")
                .control("C2")
                .kernel("K")
                .control_channel("C1", "K", RateSeq::constant(1), RateSeq::constant(1))
                .control_channel("C2", "K", RateSeq::constant(1), RateSeq::constant(1))
                .build(),
            Err(TpdfError::MultipleControlPorts(_))
        ));
    }

    #[test]
    fn control_channel_priority_is_highest() {
        let g = tiny();
        let cc = g
            .channels()
            .find(|(_, c)| c.is_control())
            .map(|(_, c)| c)
            .unwrap();
        assert_eq!(cc.priority, u32::MAX);
        assert_eq!(cc.class, ChannelClass::Control);
    }

    #[test]
    fn to_csdf_conversion() {
        let g = tiny();
        let binding = Binding::from_pairs([("p", 3)]);
        let csdf = g.to_csdf(&binding).unwrap();
        assert_eq!(csdf.actor_count(), 3);
        assert_eq!(csdf.channel_count(), 3);
        let a = csdf.actor_by_name("A").unwrap();
        let (_, c) = csdf.output_channels(a).next().unwrap();
        assert_eq!(c.production_rate(0), 3);
    }

    #[test]
    fn to_csdf_unbound_parameter_fails() {
        let g = tiny();
        assert!(g.to_csdf(&Binding::new()).is_err());
    }

    #[test]
    fn node_class_helpers() {
        let g = tiny();
        let c = g.node_by_name("C").unwrap();
        assert!(g.node(c).is_control());
        assert!(g.node(c).kernel_kind().is_none());
        let a = g.node_by_name("A").unwrap();
        assert_eq!(g.node(a).kernel_kind(), Some(&KernelKind::Regular));
        assert!(NodeClass::Control.is_control());
        assert!(NodeClass::Kernel(KernelKind::Regular).is_kernel());
    }

    #[test]
    fn rate_seq_from_poly_in_channel() {
        let g = TpdfGraph::builder()
            .parameter("beta")
            .parameter("N")
            .kernel("SRC")
            .kernel("RCP")
            .channel(
                "SRC",
                "RCP",
                RateSeq::poly(Poly::param("beta") * Poly::param("N")),
                RateSeq::poly(Poly::param("beta") * Poly::param("N")),
                0,
            )
            .build()
            .unwrap();
        let binding = Binding::from_pairs([("beta", 2), ("N", 8)]);
        let csdf = g.to_csdf(&binding).unwrap();
        let src = csdf.actor_by_name("SRC").unwrap();
        let (_, c) = csdf.output_channels(src).next().unwrap();
        assert_eq!(c.production_rate(0), 16);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ChannelId(5).to_string(), "e5");
    }
}
