//! Value-level secret-taint tracking — the sanitizer half of the
//! verification layer (DESIGN.md §10).
//!
//! The lattice is the two-point chain `PUBLIC ⊑ SECRET`: joining any
//! label with [`TaintLabel::SECRET`] yields `SECRET`, and information
//! only ever flows upward. A [`Tv`] is a 64-bit value that carries its
//! label plus a *provenance chain* — a cheap `Rc`-linked list of the
//! operations that introduced or propagated the secret — so a
//! [`LeakViolation`] can report not just *that* a secret reached a
//! timing-visible sink but *where it came from*.
//!
//! Three sinks are checked (by `ctbia-verify`'s `TaintMem` facade):
//!
//! * **raw address** — a secret used to compute a demand-path address
//!   ([`LeakKind::RawAddress`]);
//! * **native branch** — a secret deciding a real (non-linearized)
//!   branch ([`LeakKind::Branch`]);
//! * **trip count** — a secret bounding a loop ([`LeakKind::TripCount`]).
//!
//! Arithmetic on [`Tv`] joins labels without growing the provenance
//! chain (a chain node per ALU op would be noise); nodes are appended
//! only at *events* — secret introduction, memory propagation — via
//! [`Taint::via`].

use std::fmt;
use std::rc::Rc;

/// A point in the taint lattice: `PUBLIC ⊑ SECRET`.
///
/// Represented as a bitset so future PRs can split `SECRET` into
/// per-key compartments without changing the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaintLabel(u32);

impl TaintLabel {
    /// Bottom of the lattice: attacker-observable data.
    pub const PUBLIC: TaintLabel = TaintLabel(0);
    /// Top of the lattice: secret data that must stay timing-invisible.
    pub const SECRET: TaintLabel = TaintLabel(1);

    /// Least upper bound of two labels.
    #[must_use]
    pub const fn join(self, other: TaintLabel) -> TaintLabel {
        TaintLabel(self.0 | other.0)
    }

    /// Whether this label is above `PUBLIC`.
    #[must_use]
    pub const fn is_secret(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TaintLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_secret() { "secret" } else { "public" })
    }
}

/// One link in a provenance chain: the operation that produced or
/// propagated a secret, plus its parent event.
#[derive(Debug)]
struct ProvNode {
    op: &'static str,
    detail: String,
    parent: Option<Rc<ProvNode>>,
}

/// A label plus the provenance chain that justifies it.
///
/// Cloning is O(1) (the chain is shared via `Rc`); joining two secret
/// taints keeps the left chain — one witness is enough for a report.
#[derive(Debug, Clone, Default)]
pub struct Taint {
    label: TaintLabel,
    prov: Option<Rc<ProvNode>>,
}

impl Taint {
    /// The public (bottom) taint with no provenance.
    #[must_use]
    pub fn public() -> Taint {
        Taint::default()
    }

    /// A fresh secret taint whose chain starts at `detail` (e.g. the
    /// name of the secret input).
    #[must_use]
    pub fn secret(detail: impl Into<String>) -> Taint {
        Taint {
            label: TaintLabel::SECRET,
            prov: Some(Rc::new(ProvNode {
                op: "secret-input",
                detail: detail.into(),
                parent: None,
            })),
        }
    }

    /// This taint's lattice label.
    #[must_use]
    pub fn label(&self) -> TaintLabel {
        self.label
    }

    /// Whether the label is above `PUBLIC`.
    #[must_use]
    pub fn is_secret(&self) -> bool {
        self.label.is_secret()
    }

    /// Least upper bound; keeps the left provenance chain when both
    /// sides are secret.
    #[must_use]
    pub fn join(&self, other: &Taint) -> Taint {
        if self.is_secret() {
            self.clone()
        } else {
            other.clone()
        }
    }

    /// Extends the provenance chain with an event (no-op on public
    /// taint — public data needs no witness).
    #[must_use]
    pub fn via(&self, op: &'static str, detail: impl Into<String>) -> Taint {
        if !self.is_secret() {
            return self.clone();
        }
        Taint {
            label: self.label,
            prov: Some(Rc::new(ProvNode {
                op,
                detail: detail.into(),
                parent: self.prov.clone(),
            })),
        }
    }

    /// The provenance chain, newest event first, capped at 16 entries.
    #[must_use]
    pub fn chain(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut node = self.prov.as_deref();
        while let Some(n) = node {
            if out.len() >= 16 {
                out.push("… (chain truncated)".to_string());
                break;
            }
            out.push(format!("{}: {}", n.op, n.detail));
            node = n.parent.as_deref();
        }
        out
    }
}

/// A taint-carrying 64-bit value.
///
/// Its arithmetic is the [`Value`](crate::sink::Value) algebra: wrapping,
/// and every operation joins the operands' taints, so derived values
/// are at least as secret as their inputs. The `ct_*` comparisons match
/// [`crate::predicate`] bit-for-bit: a comparison of secrets is itself a
/// secret *mask*, safe to feed to `Value::select` but a
/// [`LeakKind::Branch`] violation if used to decide a native branch.
#[derive(Debug, Clone, Default)]
pub struct Tv {
    /// The concrete value.
    pub v: u64,
    /// Its taint.
    pub taint: Taint,
}

impl Tv {
    /// A public constant.
    #[must_use]
    pub fn public(v: u64) -> Tv {
        Tv {
            v,
            taint: Taint::public(),
        }
    }

    /// A fresh secret input named `what`.
    #[must_use]
    pub fn secret(v: u64, what: impl Into<String>) -> Tv {
        Tv {
            v,
            taint: Taint::secret(what),
        }
    }

    /// Whether the value is secret.
    #[must_use]
    pub fn is_secret(&self) -> bool {
        self.taint.is_secret()
    }
}

/// Which timing-visible sink a secret reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakKind {
    /// Secret used in a demand-path (non-CT) address computation.
    RawAddress,
    /// Secret used as a native branch condition.
    Branch,
    /// Secret used as a loop trip count.
    TripCount,
    /// Secret-dependent access whose linearize sweep did not cover the
    /// full dataflow set (degraded-mode sweep that skips lines, or a
    /// sweep over a DS smaller than the addressed region).
    PartialSweep,
    /// A `CtLoad`/`CtStore` existence bitmap flowing into a public
    /// branch — the bitmap encodes secret-dependent residency.
    BitmapBranch,
    /// A `CtCond` predicate mask built from a value that is not all-ones
    /// or all-zeros, degrading branchless selects to data-dependent ones.
    PartialMask,
    /// Secret-dependent address issued on the wrong path of a mispredicted
    /// branch: the access is squashed architecturally but its cache fill
    /// persists, encoding the secret in microarchitectural state (the
    /// Spectre v1 channel).
    SpeculativeFill,
}

impl fmt::Display for LeakKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LeakKind::RawAddress => "raw address computation",
            LeakKind::Branch => "native branch condition",
            LeakKind::TripCount => "loop trip count",
            LeakKind::PartialSweep => "partially-swept dataflow set",
            LeakKind::BitmapBranch => "existence bitmap branch",
            LeakKind::PartialMask => "partial predicate mask",
            LeakKind::SpeculativeFill => "wrong-path speculative fill",
        })
    }
}

/// A structured report of one secret reaching a timing-visible sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakViolation {
    /// The sink kind.
    pub kind: LeakKind,
    /// Where in the program the sink sits (the checker's description
    /// of the offending op).
    pub context: String,
    /// The concrete address involved, for address sinks.
    pub addr: Option<u64>,
    /// The provenance chain of the secret, newest event first.
    pub provenance: Vec<String>,
}

impl fmt::Display for LeakViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "secret reached {} in `{}`", self.kind, self.context)?;
        if let Some(a) = self.addr {
            write!(f, " (addr {a:#x})")?;
        }
        for step in &self.provenance {
            write!(f, "\n    <- {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate;
    use crate::sink::Value;

    #[test]
    fn lattice_join_is_monotone() {
        let p = TaintLabel::PUBLIC;
        let s = TaintLabel::SECRET;
        assert_eq!(p.join(p), p);
        assert_eq!(p.join(s), s);
        assert_eq!(s.join(p), s);
        assert_eq!(s.join(s), s);
        assert!(!p.is_secret());
        assert!(s.is_secret());
    }

    #[test]
    fn arithmetic_joins_taint_and_matches_plain_values() {
        let k = Tv::secret(41, "key");
        let one = Tv::public(1);
        let sum = k.add(&one);
        assert_eq!(sum.v, 42);
        assert!(sum.is_secret());
        let pub_sum = one.add(&Tv::public(2));
        assert_eq!(pub_sum.v, 3);
        assert!(!pub_sum.is_secret());
    }

    #[test]
    fn ct_mirrors_agree_with_predicate_layer() {
        for (a, b) in [(0u64, 1u64), (5, 5), (u64::MAX, 0), (7, 9)] {
            let ta = Tv::secret(a, "a");
            let tb = Tv::public(b);
            assert_eq!(ta.ct_lt(&tb).v, predicate::ct_lt(a, b));
            assert_eq!(ta.ct_eq(&tb).v, predicate::ct_eq(a, b));
            assert_eq!(ta.ct_le(&tb).v, predicate::ct_le(a, b));
            assert_eq!(ta.ct_min(&tb).v, predicate::ct_min(a, b));
        }
    }

    #[test]
    fn select_under_secret_mask_yields_secret() {
        let mask = Tv::secret(u64::MAX, "cond");
        let out = Tv::select(&mask, &Tv::public(1), &Tv::public(2));
        assert_eq!(out.v, 1);
        assert!(out.is_secret());
    }

    #[test]
    fn provenance_chain_reports_newest_first() {
        let t = Taint::secret("aes key byte 3")
            .via("ds-load", "table lookup")
            .via("ds-load", "second lookup");
        let chain = t.chain();
        assert_eq!(chain.len(), 3);
        assert!(chain[0].contains("second lookup"));
        assert!(chain[2].contains("aes key byte 3"));
    }

    #[test]
    fn violation_display_carries_provenance() {
        let v = LeakViolation {
            kind: LeakKind::RawAddress,
            context: "probe a[mid]".to_string(),
            addr: Some(0x1040),
            provenance: Taint::secret("search key").chain(),
        };
        let s = v.to_string();
        assert!(s.contains("raw address computation"));
        assert!(s.contains("0x1040"));
        assert!(s.contains("search key"));
    }
}
