//! The [`Netlist`] container itself.

use std::collections::HashMap;
use std::fmt;

use crate::{Gate, GateId, GateKind, NetId, NetlistError};

/// A signal net: a name plus the gate driving it, if any.
///
/// Nets without a driver are primary inputs (or, transiently while a parser
/// is running, forward references that must be resolved before
/// [`Netlist::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Unique (per netlist) net name.
    pub name: String,
    /// The gate driving this net, `None` for primary inputs.
    pub driver: Option<GateId>,
}

/// A combinational Boolean network.
///
/// Gates are stored densely and identified by [`GateId`]; nets by [`NetId`].
/// The structure is append-only: analyses that need a transformed circuit
/// (decomposition, cone extraction) build a fresh `Netlist`.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    is_input: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nets (including primary inputs).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Access a net record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from a different netlist).
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Access a gate record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(GateId, &Gate)` in creation order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::from_index(i), g))
    }

    /// Iterates over `(NetId, &Net)` in creation order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Heap bytes the netlist holds, counted by capacity rather than
    /// length: an estimate for callers that budget memory by the byte.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let names: usize = self.nets.iter().map(|n| n.name.capacity()).sum();
        let fanins: usize = self.gates.iter().map(|g| g.inputs.capacity()).sum();
        let keys: usize = self.by_name.keys().map(String::capacity).sum();
        self.name.capacity()
            + self.nets.capacity() * size_of::<Net>()
            + names
            + self.gates.capacity() * size_of::<Gate>()
            + (fanins + self.inputs.capacity() + self.outputs.capacity()) * size_of::<NetId>()
            + self.by_name.capacity() * (size_of::<(String, NetId)>() + 1)
            + keys
            + self.is_input.capacity()
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Iterates over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Whether `net` is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.is_input[net.index()]
    }

    /// Whether `net` is listed as a primary output.
    pub fn is_output(&self, net: NetId) -> bool {
        self.outputs.contains(&net)
    }

    /// Creates a fresh undriven, non-input net. Parsers use this for forward
    /// references; [`Self::validate`] rejects nets left undriven.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = NetId::from_index(self.nets.len());
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net { name, driver: None });
        self.is_input.push(false);
        Ok(id)
    }

    /// Declares a primary input and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken; use [`Self::try_add_input`] when
    /// parsing untrusted sources.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Declares a primary input, failing on duplicate names.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] if the name is taken.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.add_net(name)?;
        self.is_input[id.index()] = true;
        self.inputs.push(id);
        Ok(id)
    }

    /// Marks an existing undriven net as a primary input.
    ///
    /// # Errors
    ///
    /// [`NetlistError::MultipleDrivers`] if the net already has a driver or
    /// is already an input.
    pub fn mark_input(&mut self, net: NetId) -> Result<(), NetlistError> {
        if self.nets[net.index()].driver.is_some() || self.is_input[net.index()] {
            return Err(NetlistError::MultipleDrivers(
                self.nets[net.index()].name.clone(),
            ));
        }
        self.is_input[net.index()] = true;
        self.inputs.push(net);
        Ok(())
    }

    /// Declares `net` a primary output. A net may be listed only once.
    pub fn add_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Adds a gate with an auto-generated output net name and returns the
    /// output net.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadFanin`] for an inadmissible input count.
    pub fn add_gate(&mut self, kind: GateKind, inputs: Vec<NetId>) -> Result<NetId, NetlistError> {
        let name = format!("_g{}", self.gates.len());
        self.add_gate_named(kind, inputs, name)
    }

    /// Adds a gate whose output net gets the given name.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadFanin`] for an inadmissible input count;
    /// [`NetlistError::DuplicateName`] if the output name is taken.
    pub fn add_gate_named(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net(name)?;
        self.drive_net(out, kind, inputs)?;
        Ok(out)
    }

    /// Attaches a new gate as the driver of an existing (undriven) net.
    /// Parsers use this to resolve forward references.
    ///
    /// # Errors
    ///
    /// [`NetlistError::MultipleDrivers`] if the net already has a driver or
    /// is an input; [`NetlistError::BadFanin`] for an inadmissible input
    /// count.
    pub fn drive_net(
        &mut self,
        output: NetId,
        kind: GateKind,
        inputs: Vec<NetId>,
    ) -> Result<GateId, NetlistError> {
        if !kind.accepts_fanin(inputs.len()) {
            return Err(NetlistError::BadFanin {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        if self.nets[output.index()].driver.is_some() || self.is_input[output.index()] {
            return Err(NetlistError::MultipleDrivers(
                self.nets[output.index()].name.clone(),
            ));
        }
        let gid = GateId::from_index(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        self.nets[output.index()].driver = Some(gid);
        Ok(gid)
    }

    /// Appends a gate with **no** arity, duplicate-driver, or acyclicity
    /// checks and returns its id.
    ///
    /// This exists for building deliberately malformed netlists — the
    /// adversarial inputs `atpg-easy-lint` exercises its passes against —
    /// and for trusted bulk loaders that validate separately. The net's
    /// recorded driver is only set when it had none, so a multiply-driven
    /// net keeps its first driver while the extra gate stays visible to
    /// analyses that scan the gate list.
    pub fn add_gate_unchecked(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> GateId {
        let gid = GateId::from_index(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        if self.nets[output.index()].driver.is_none() {
            self.nets[output.index()].driver = Some(gid);
        }
        gid
    }

    /// Per-net lists of the gates reading that net (fan-out lists).
    ///
    /// Primary-output consumption is not included; use
    /// [`Self::is_output`] for that.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.nets.len()];
        for (gid, gate) in self.gates() {
            for &inp in &gate.inputs {
                out[inp.index()].push(gid);
            }
        }
        out
    }

    /// Largest gate fan-in in the network (`k_fi` in the paper); 0 if there
    /// are no gates.
    pub fn max_fanin(&self) -> usize {
        self.gates.iter().map(Gate::fanin).max().unwrap_or(0)
    }

    /// Largest net fan-out in the network (`k_fo` in the paper), counting
    /// gate sinks and primary-output consumption; 0 if empty.
    pub fn max_fanout(&self) -> usize {
        let mut counts = vec![0usize; self.nets.len()];
        for gate in &self.gates {
            for &inp in &gate.inputs {
                counts[inp.index()] += 1;
            }
        }
        for &o in &self.outputs {
            counts[o.index()] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Structural sanity check: every net driven or an input, no
    /// combinational cycles, at least one output.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Undriven`] or [`NetlistError::Cycle`] describing the
    /// first offending net.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            if net.driver.is_none() && !self.is_input(id) {
                return Err(NetlistError::Undriven(net.name.clone()));
            }
        }
        crate::topo::topo_order(self)?;
        Ok(())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist {}: {} inputs, {} outputs, {} gates, {} nets",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gates.len(),
            self.nets.len()
        )?;
        for (_, g) in self.gates() {
            let ins: Vec<&str> = g
                .inputs
                .iter()
                .map(|&n| self.net(n).name.as_str())
                .collect();
            writeln!(
                f,
                "  {} = {}({})",
                self.net(g.output).name,
                g.kind,
                ins.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate_named(GateKind::And, vec![a, b], "f").unwrap();
        nl.add_output(f);
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = tiny();
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.num_nets(), 3);
        assert!(nl.validate().is_ok());
        assert!(nl.is_input(nl.find_net("a").unwrap()));
        assert!(nl.is_output(nl.find_net("f").unwrap()));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("d");
        nl.add_input("a");
        assert_eq!(
            nl.try_add_input("a"),
            Err(NetlistError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn undriven_net_rejected() {
        let mut nl = Netlist::new("u");
        let x = nl.add_net("x").unwrap();
        nl.add_output(x);
        assert!(matches!(nl.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let f = nl.add_gate_named(GateKind::Buf, vec![a], "f").unwrap();
        assert!(matches!(
            nl.drive_net(f, GateKind::Not, vec![a]),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn bad_fanin_rejected() {
        let mut nl = Netlist::new("b");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        assert!(matches!(
            nl.add_gate(GateKind::Not, vec![a, b]),
            Err(NetlistError::BadFanin { .. })
        ));
    }

    #[test]
    fn fanout_lists() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let x = nl.add_gate_named(GateKind::Not, vec![a], "x").unwrap();
        let y = nl.add_gate_named(GateKind::Not, vec![a], "y").unwrap();
        let z = nl.add_gate_named(GateKind::And, vec![x, y], "z").unwrap();
        nl.add_output(z);
        let fo = nl.fanouts();
        assert_eq!(fo[a.index()].len(), 2);
        assert_eq!(fo[x.index()].len(), 1);
        assert_eq!(nl.max_fanout(), 2);
        assert_eq!(nl.max_fanin(), 2);
    }

    #[test]
    fn display_mentions_gates() {
        let s = tiny().to_string();
        assert!(s.contains("f = AND(a, b)"), "{s}");
    }

    #[test]
    fn output_listed_once() {
        let mut nl = tiny();
        let f = nl.find_net("f").unwrap();
        nl.add_output(f);
        assert_eq!(nl.num_outputs(), 1);
    }
}
