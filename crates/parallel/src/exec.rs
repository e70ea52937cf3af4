//! The execution context every pipeline stage takes: one [`Exec`] per
//! stage call, passed by reference.
//!
//! A stage needs three things besides its data: how many workers it may
//! fan out over, the request [`Budget`] it polls, and the span under which
//! it records its trace. They always travel together, so they live in one
//! value, and every stage has exactly one entry point:
//! `fn stage(…, exec: &Exec) -> Result<_, Cancelled>`. Callers that cannot
//! be cancelled pass [`Exec::new`]; a request path builds its `Exec` once
//! from the request's budget and trace and hands narrowed copies
//! ([`Exec::under`], [`Exec::split`]) down the call tree.
//!
//! Both the budget and the span are **observation only**: budget checks
//! can abort a run but never reorder or skip work, and spans only record.
//! A completed run is therefore bit-identical whatever budget or trace it
//! ran under; only `threads` changes how the work is scheduled, and every
//! stage merges its fan-outs in input order, so not even that changes the
//! output.

use crate::budget::{Budget, Cancelled};
use spade_telemetry::{Span, SpanCtx};

/// One stage call's execution context.
#[derive(Clone)]
pub struct Exec<'a> {
    /// Worker threads this call may fan out over (`0` = all cores, `1` =
    /// serial). Results are identical for every value.
    pub threads: usize,
    /// The request budget, polled at the stage's batch boundaries; a stage
    /// unwinds with [`Cancelled`] once it is exhausted. `None` cannot
    /// cancel, and its polls cost nothing.
    pub budget: Option<&'a Budget>,
    /// Where the stage records its spans: spans it opens become children
    /// of this position. [`SpanCtx::disabled`] records nothing.
    pub span: SpanCtx,
}

impl Exec<'static> {
    /// An uncancellable, untraced context with `threads` workers. A caller
    /// that may cancel sets `budget` to its own [`Budget`].
    pub fn new(threads: usize) -> Exec<'static> {
        Exec { threads, budget: None, span: SpanCtx::disabled() }
    }
}

impl<'a> Exec<'a> {
    /// Polls the budget: `Ok(())` to continue, `Err(Cancelled)` to unwind.
    pub fn check(&self) -> Result<(), Cancelled> {
        self.budget.map_or(Ok(()), Budget::check)
    }

    /// The same context, descended into `span`: stages called with it
    /// record their spans as children of `span`.
    pub fn under(&self, span: &Span) -> Exec<'a> {
        Exec { threads: self.threads, budget: self.budget, span: span.ctx() }
    }

    /// Splits the thread count across a nested fan-out of `outer_items`
    /// units, each of which fans out further (see
    /// [`split_budget`](crate::split_budget)). Returns the outer worker
    /// count and the context each unit runs with; `outer × inner.threads`
    /// never exceeds the resolved `threads`, so nesting does not
    /// oversubscribe the cores.
    pub fn split(&self, outer_items: usize) -> (usize, Exec<'a>) {
        let (outer, inner) = crate::split_budget(self.threads, outer_items);
        (outer, Exec { threads: inner, ..self.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_unlimited_and_untraced() {
        let exec = Exec::new(3);
        assert_eq!(exec.threads, 3);
        assert!(exec.check().is_ok());
        assert!(exec.budget.is_none());
        assert!(!exec.span.enabled());
    }

    #[test]
    fn split_keeps_budget_and_never_oversubscribes() {
        let budget = Budget::unlimited();
        let exec = Exec { threads: 8, budget: Some(&budget), span: SpanCtx::disabled() };
        let (outer, inner) = exec.split(3);
        assert_eq!((outer, inner.threads), (3, 2));
        inner.check().unwrap();
        assert_eq!(budget.checks(), 1);
        budget.cancel();
        assert!(inner.check().is_err());
    }

    #[test]
    fn under_nests_spans() {
        let trace = spade_telemetry::Trace::new();
        let exec = Exec { span: trace.root(), ..Exec::new(1) };
        let stage = exec.span.span("stage");
        exec.under(&stage).span.span("step").finish();
        stage.finish();
        assert_eq!(trace.shape(), "stage(step;);");
    }
}
