//! Parallelization Contracts (PACTs): the second-order functions that wrap
//! user-defined first-order functions.
//!
//! The contract an operator implements tells the system how its input may be
//! partitioned for parallel execution (Section 3 of the paper): `Map` records
//! are independent, `Reduce` groups records sharing a key, `Match` builds
//! equi-join pairs of two inputs, `Cross` builds the Cartesian product, and
//! `CoGroup` groups both inputs by key.  `InnerCoGroup` is the inner-join
//! flavour of `CoGroup` used by the incremental Connected Components dataflow
//! (Section 5.1): groups whose key is missing on either side are dropped.

use crate::record::Record;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Receives records as they are emitted, instead of buffering them.
///
/// A [`Collector`] built with [`Collector::with_sink`] forwards every
/// collected record here — the hook the executor's fused chains use to push
/// each record into the next member by a direct call while the user function
/// is still running.  Emission is infallible from the UDF's point of view.
pub trait RecordSink: Send {
    /// Receives one emitted record.
    fn push(&mut self, record: Record);
    /// Recovers the concrete sink once the operator finished emitting
    /// (trait objects cannot be downcast without an `Any` hop).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// Receives the records a user-defined function emits.
///
/// A fresh collector is handed to the UDF for every invocation; everything
/// pushed into it becomes part of the operator's output partition — either
/// buffered in memory (the default) or streamed straight into a
/// [`RecordSink`] ([`Collector::with_sink`]).
#[derive(Default)]
pub struct Collector {
    buffer: Vec<Record>,
    sink: Option<Box<dyn RecordSink>>,
    collected: usize,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("collected", &self.collected)
            .field("buffered", &self.buffer.len())
            .field("streaming", &self.sink.is_some())
            .finish()
    }
}

impl Collector {
    /// Creates an empty (buffering) collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Creates a collector that streams every record into `sink` instead of
    /// buffering it.
    pub fn with_sink(sink: Box<dyn RecordSink>) -> Self {
        Collector {
            buffer: Vec::new(),
            sink: Some(sink),
            collected: 0,
        }
    }

    /// Emits one record.
    #[inline]
    pub fn collect(&mut self, record: Record) {
        self.collected += 1;
        match &mut self.sink {
            Some(sink) => sink.push(record),
            None => self.buffer.push(record),
        }
    }

    /// Emits every record of an iterator.
    pub fn collect_all<I: IntoIterator<Item = Record>>(&mut self, records: I) {
        for record in records {
            self.collect(record);
        }
    }

    /// Number of records collected so far (buffered or streamed).
    pub fn len(&self) -> usize {
        self.collected
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.collected == 0
    }

    /// Consumes the collector, returning the buffered records (empty for a
    /// streaming collector — its records already left through the sink).
    pub fn into_records(self) -> Vec<Record> {
        self.buffer
    }

    /// Drains the buffered records, leaving the collector reusable.
    pub fn drain(&mut self) -> Vec<Record> {
        self.collected = self.buffer.len();
        let drained = std::mem::take(&mut self.buffer);
        self.collected = 0;
        drained
    }

    /// Takes the streaming sink back out (None for buffering collectors).
    pub fn take_sink(&mut self) -> Option<Box<dyn RecordSink>> {
        self.sink.take()
    }
}

/// First-order function for the `Map` contract: invoked once per record.
pub trait MapFunction: Send + Sync {
    /// Processes one record, emitting zero or more records.
    fn map(&self, record: &Record, out: &mut Collector);
}

/// First-order function for the `Reduce` contract: invoked once per key group.
pub trait ReduceFunction: Send + Sync {
    /// Processes the group of records sharing `key`.
    fn reduce(&self, key: &[Value], group: &[Record], out: &mut Collector);
}

/// First-order function for the `Match` contract: invoked once per pair of
/// records with equal keys (an equi-join).
pub trait MatchFunction: Send + Sync {
    /// Processes one joined pair.
    fn join(&self, left: &Record, right: &Record, out: &mut Collector);
}

/// First-order function for the `Cross` contract: invoked once per pair of
/// records from the Cartesian product of both inputs.
pub trait CrossFunction: Send + Sync {
    /// Processes one pair of the cross product.
    fn cross(&self, left: &Record, right: &Record, out: &mut Collector);
}

/// First-order function for the `CoGroup` / `InnerCoGroup` contracts: invoked
/// once per key with all records of both inputs that carry that key.
pub trait CoGroupFunction: Send + Sync {
    /// Processes the pair of groups sharing `key`.  For the plain `CoGroup`
    /// contract either side may be empty; for `InnerCoGroup` both sides are
    /// guaranteed non-empty.
    fn cogroup(&self, key: &[Value], left: &[Record], right: &[Record], out: &mut Collector);
}

// --- Closure adapters -------------------------------------------------------
//
// Writing a struct per UDF is verbose; these adapters let plans be assembled
// from closures while keeping the trait objects the runtime works with.

/// Wraps a closure as a [`MapFunction`].
pub struct MapClosure<F>(pub F);

impl<F> MapFunction for MapClosure<F>
where
    F: Fn(&Record, &mut Collector) + Send + Sync,
{
    fn map(&self, record: &Record, out: &mut Collector) {
        (self.0)(record, out)
    }
}

/// Wraps a closure as a [`ReduceFunction`].
pub struct ReduceClosure<F>(pub F);

impl<F> ReduceFunction for ReduceClosure<F>
where
    F: Fn(&[Value], &[Record], &mut Collector) + Send + Sync,
{
    fn reduce(&self, key: &[Value], group: &[Record], out: &mut Collector) {
        (self.0)(key, group, out)
    }
}

/// Wraps a closure as a [`MatchFunction`].
pub struct MatchClosure<F>(pub F);

impl<F> MatchFunction for MatchClosure<F>
where
    F: Fn(&Record, &Record, &mut Collector) + Send + Sync,
{
    fn join(&self, left: &Record, right: &Record, out: &mut Collector) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CrossFunction`].
pub struct CrossClosure<F>(pub F);

impl<F> CrossFunction for CrossClosure<F>
where
    F: Fn(&Record, &Record, &mut Collector) + Send + Sync,
{
    fn cross(&self, left: &Record, right: &Record, out: &mut Collector) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CoGroupFunction`].
pub struct CoGroupClosure<F>(pub F);

impl<F> CoGroupFunction for CoGroupClosure<F>
where
    F: Fn(&[Value], &[Record], &[Record], &mut Collector) + Send + Sync,
{
    fn cogroup(&self, key: &[Value], left: &[Record], right: &[Record], out: &mut Collector) {
        (self.0)(key, left, right, out)
    }
}

/// A shareable, type-erased user-defined function attached to an operator.
#[derive(Clone)]
pub enum Udf {
    /// No user code (sources, sinks, unions, caches).
    None,
    /// A `Map` first-order function.
    Map(Arc<dyn MapFunction>),
    /// A `Reduce` first-order function.
    Reduce(Arc<dyn ReduceFunction>),
    /// A `Match` first-order function.
    Match(Arc<dyn MatchFunction>),
    /// A `Cross` first-order function.
    Cross(Arc<dyn CrossFunction>),
    /// A `CoGroup` / `InnerCoGroup` first-order function.
    CoGroup(Arc<dyn CoGroupFunction>),
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Udf::None => "None",
            Udf::Map(_) => "Map",
            Udf::Reduce(_) => "Reduce",
            Udf::Match(_) => "Match",
            Udf::Cross(_) => "Cross",
            Udf::CoGroup(_) => "CoGroup",
        };
        write!(f, "Udf::{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_drains() {
        let mut c = Collector::new();
        assert!(c.is_empty());
        c.collect(Record::pair(1, 2));
        c.collect_all(vec![Record::pair(3, 4), Record::pair(5, 6)]);
        assert_eq!(c.len(), 3);
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn map_closure_adapts() {
        let udf = MapClosure(|r: &Record, out: &mut Collector| {
            out.collect(Record::pair(r.long(0) * 2, r.long(1)));
        });
        let mut out = Collector::new();
        udf.map(&Record::pair(4, 7), &mut out);
        assert_eq!(out.into_records()[0].long(0), 8);
    }

    #[test]
    fn reduce_closure_sees_whole_group() {
        let udf = ReduceClosure(|key: &[Value], group: &[Record], out: &mut Collector| {
            let sum: i64 = group.iter().map(|r| r.long(1)).sum();
            out.collect(Record::pair(key[0].as_long(), sum));
        });
        let mut out = Collector::new();
        udf.reduce(
            &[Value::Long(1)],
            &[Record::pair(1, 10), Record::pair(1, 5)],
            &mut out,
        );
        assert_eq!(out.into_records()[0].long(1), 15);
    }

    #[test]
    fn cogroup_closure_receives_both_sides() {
        let udf = CoGroupClosure(
            |_k: &[Value], l: &[Record], r: &[Record], out: &mut Collector| {
                out.collect(Record::pair(l.len() as i64, r.len() as i64));
            },
        );
        let mut out = Collector::new();
        udf.cogroup(&[Value::Long(1)], &[Record::pair(1, 1)], &[], &mut out);
        assert_eq!(out.into_records()[0].long(1), 0);
    }

    #[test]
    fn udf_debug_names_variant() {
        let udf = Udf::Map(Arc::new(MapClosure(|_: &Record, _: &mut Collector| {})));
        assert_eq!(format!("{udf:?}"), "Udf::Map");
    }
}
