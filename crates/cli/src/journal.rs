//! The journal commands: `apply` (one managed transaction, optionally
//! write-ahead journalled), `recover` (replay, or `--verify` the plan)
//! and `checkpoint` (offline compaction).

use std::fmt::Write as _;
use std::sync::Arc;

use bschema_core::checkpoint::{checkpoint_path, Checkpoint, RecoveryPlan};
use bschema_core::engine::{JournalFiles, Op};
use bschema_core::journal::Journal;
use bschema_core::legality::LegalityChecker;
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::updates::transaction_from_ldif;
use bschema_directory::ldif::{self, LdifLimits};
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_obs::{Probe, Recorder};

use crate::args::Args;
use crate::{ldif_limits, load_ldif, load_schema, read_file, usage_error, CliError, ObsOpts};
use crate::{LIMITS, OBS};

pub(crate) fn apply(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, OBS, &[LIMITS, &["--journal", "--inject-fault"]].concat())?;
    let [schema_path, ldif_path, tx_path] =
        args.exactly("apply takes <schema.bs> <data.ldif> <tx.ldif>")?;
    let obs = ObsOpts::new(&args);
    let journal_path = args.value("--journal");
    let inject_fault: Option<u64> = args.number("--inject-fault")?;
    let ldif_limits = ldif_limits(&args, LdifLimits::default())?;
    let parsed = load_schema(schema_path)?;
    let dir = load_ldif(ldif_path, Some(&parsed), &ldif_limits)?;
    let recorder = Arc::new(Recorder::new());
    let plan = inject_fault.map(|n| {
        silence_injected_panics();
        Arc::new(FaultPlan::fail_nth(n).with_inner(recorder.clone()))
    });
    let probe: &dyn Probe = match &plan {
        Some(plan) => &**plan,
        None if obs.wanted() => &*recorder,
        None => bschema_obs::noop(),
    };
    let managed = ManagedDirectory::with_instance(parsed.schema.clone(), dir)
        .map_err(|e| CliError { message: e.to_string(), code: 1 })?;

    // With `--journal` the file is opened through the one recovery path:
    // torn tail repaired in place, checkpoint + history replayed onto the
    // data file, writer resumed past both cursors. The transaction is
    // then built and checked against the *recovered* state.
    let mut engine = match journal_path {
        None => managed,
        Some(path) => {
            let (engine, report) = ManagedDirectory::open(managed, path).map_err(|e| match e {
                ManagedError::Open(detail) => usage_error(format!("journal {path:?}: {detail}")),
                e => CliError { message: e.to_string(), code: 1 },
            })?;
            if report.truncated {
                let _ = writeln!(
                    out,
                    "journal: repaired torn tail ({} damaged record(s) dropped)",
                    report.dropped_records
                );
            }
            engine
        }
    };

    // The shared `transaction_from_ldif` decoder, so the CLI and the
    // wire server accept exactly the same change format.
    let tx = ldif::parse_ldif_limited(&read_file(tx_path)?, &ldif_limits)
        .map_err(|e| e.to_string())
        .and_then(|records| {
            transaction_from_ldif(engine.instance(), records).map_err(|e| e.to_string())
        })
        .map_err(|e| usage_error(format!("transaction: {e}")))?;
    // WAL discipline, owned by the engine: the transaction is certified
    // legal on a copy first, the begin record (with the full transaction
    // payload) is synced to the file before the instance changes, then
    // the commit record. A rolled-back transaction writes nothing; a
    // crash in between leaves an uncommitted record that `recover`
    // discards.
    let journal_error = |e: &dyn std::fmt::Display| {
        usage_error(format!("cannot write journal {journal_path:?}: {e}"))
    };
    let code = match engine.apply_op(Op::Tx { tx: &tx, global: None }, probe) {
        Ok(flushed) => {
            // Unlike a server, the process ends here: a commit record
            // that did not reach the file means the change is lost.
            flushed.map_err(|e| journal_error(&e))?;
            let _ = writeln!(
                out,
                "APPLIED: {} op(s); directory now has {} entries (legal)",
                tx.len(),
                engine.len()
            );
            0
        }
        Err(ManagedError::Io(detail)) => return Err(journal_error(&detail)),
        Err(ManagedError::RolledBack(report)) => {
            let _ = writeln!(out, "ROLLED BACK: {} violation(s)", report.len());
            for v in report.violations() {
                let _ = writeln!(out, "  - {v}");
            }
            1
        }
        Err(ManagedError::Panicked { reason }) => {
            let _ = writeln!(out, "PANICKED (rolled back, instance unchanged): {reason}");
            1
        }
        Err(e) => return Err(CliError { message: e.to_string(), code: 2 }),
    };
    if let Some(plan) = &plan {
        let outcome = if plan.injected() == 0 {
            "none fired"
        } else if code == 0 {
            "survived"
        } else {
            "rolled back"
        };
        let _ = writeln!(
            out,
            "fault plan: {} probe event(s), {} injected ({outcome})",
            plan.events(),
            plan.injected()
        );
        if plan.injected() > 0 && code == 0 {
            recorder.add("faults.survived", 1);
        }
    }
    obs.emit(out, recorder.metrics(), Some(&recorder));
    Ok(code)
}

pub(crate) fn recover(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, &[OBS, &["--verify"]].concat(), &[])?;
    let [schema_path, base_path, journal_path] =
        args.exactly("recover takes <schema.bs> <base.ldif> <journal> [--verify]")?;
    let obs = ObsOpts::new(&args);
    let parsed = load_schema(schema_path)?;
    let JournalFiles { journal, ckpt_text, .. } = read_journal_files(journal_path)?;
    let ckpt = ckpt_text.as_deref().map(Checkpoint::decode);
    let plan = RecoveryPlan::new(parsed.schema.clone(), ckpt, &journal);
    if args.has("--verify") {
        return Ok(recover_verify(&journal, &plan, out));
    }
    let base = load_ldif(base_path, Some(&parsed), &LdifLimits::default())?;
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: torn tail, {} damaged record(s) dropped",
            journal.dropped_records
        );
    }
    let recovery = match plan.execute(base, &journal) {
        Ok(recovery) => recovery,
        Err(e) => {
            let _ = writeln!(out, "RECOVERY FAILED: {e}");
            return Ok(1);
        }
    };
    let (managed, report) = (recovery.managed, recovery.report);
    if let Some(seq) = recovery.checkpoint_seq {
        let _ = writeln!(out, "checkpoint: restored snapshot covering seq {seq}");
    } else if ckpt_text.is_some() {
        let _ = writeln!(out, "checkpoint: unusable, fell back to full replay");
    }
    let _ = writeln!(
        out,
        "RECOVERED: replayed {} committed tx(s), discarded {} uncommitted; directory has {} entries",
        report.replayed,
        report.discarded,
        managed.len()
    );
    let recorder = Recorder::new();
    let legal = if obs.wanted() {
        LegalityChecker::new(&parsed.schema)
            .with_probe(&recorder)
            .check(managed.instance())
            .is_legal()
    } else {
        managed.is_legal()
    };
    let _ = writeln!(out, "{}", if legal { "LEGAL" } else { "ILLEGAL" });
    obs.emit(out, recorder.metrics(), Some(&recorder));
    Ok(if legal { 0 } else { 1 })
}

/// `recover --verify`: the dry run. Reports what recovery *would* do —
/// intact/torn record counts and the [`RecoveryPlan`] `recover` itself
/// executes (checkpoint usability, the recovery point) — without
/// mutating the journal, the checkpoint, or anything else on disk.
fn recover_verify(journal: &Journal, plan: &RecoveryPlan, out: &mut String) -> i32 {
    let (start, next, committed) =
        (journal.start_seq, journal.next_seq(), journal.committed().count());
    let (records, uncommitted) = (next - start, journal.txs.len() - committed);
    let _ = writeln!(
        out,
        "journal: {records} intact record(s) (seq {start}..{next}), {committed} committed tx(s), {uncommitted} uncommitted",
    );
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: TORN tail — {} damaged record(s) would be dropped, file would shrink to {} byte(s)",
            journal.dropped_records, journal.intact_len
        );
    } else {
        let _ = writeln!(out, "journal: tail intact");
    }
    let code = match plan {
        RecoveryPlan::Restore { ckpt, adopted, tail, .. } => {
            let (entries, seq) = (ckpt.rows.len(), ckpt.seq);
            let adoption = match adopted {
                true => " (schema evolved since boot: adopting the checkpoint's embedded schema)",
                false => "",
            };
            let _ =
                writeln!(out, "checkpoint: intact, {entries} entries covering seq {seq}{adoption}");
            let _ = writeln!(
                out,
                "recovery point: checkpoint seq {seq} + {tail} tail tx(s) would replay"
            );
            0
        }
        RecoveryPlan::FullReplay { ignored, txs, .. } => {
            let ckpt =
                ignored.as_ref().map_or("none".to_owned(), |why| format!("UNUSABLE — {why}"));
            let _ = writeln!(out, "checkpoint: {ckpt}");
            let _ = writeln!(
                out,
                "recovery point: full replay, {txs} committed tx(s) from the seed base"
            );
            0
        }
        RecoveryPlan::Fatal(why) => {
            let _ = writeln!(out, "VERIFY FAILED: {why} — recovery would be refused");
            1
        }
    };
    let _ = writeln!(out, "VERIFY ONLY: no files were modified");
    code
}

/// `bschema checkpoint` — offline compaction: recover the directory
/// (checkpoint + tail, or full replay), certify it legal, snapshot it
/// into `<journal>.ckpt`, and truncate the journal. The write order
/// (checkpoint renamed into place before the journal shrinks) means a
/// crash mid-command never loses history.
pub(crate) fn checkpoint(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [schema_path, base_path, journal_path] = Args::read(args, &[], &[])?
        .exactly("checkpoint takes <schema.bs> <base.ldif> <journal>")?;
    let parsed = load_schema(schema_path)?;
    let base = load_ldif(base_path, Some(&parsed), &LdifLimits::default())?;
    let JournalFiles { journal, ckpt_text, .. } = read_journal_files(journal_path)?;
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: torn tail, {} damaged record(s) discarded",
            journal.dropped_records
        );
    }
    let ckpt = ckpt_text.as_deref().map(Checkpoint::decode);
    let plan = RecoveryPlan::new(parsed.schema.clone(), ckpt, &journal);
    let recovery = match plan.execute(base, &journal) {
        Ok(recovery) => recovery,
        Err(e) => {
            let _ = writeln!(out, "RECOVERY FAILED: {e}");
            return Ok(1);
        }
    };
    let folded = recovery.report.replayed;
    let mut engine = recovery.managed;
    engine.attach_file(journal_path.into());
    let seq = engine
        .checkpoint(&Recorder::new())
        .map_err(|e| usage_error(format!("checkpointing {journal_path:?}: {e}")))?;
    let _ = writeln!(
        out,
        "CHECKPOINTED: {} entries at seq {seq} -> {}; journal truncated ({folded} committed tx(s) folded in)",
        engine.len(),
        checkpoint_path(std::path::Path::new(journal_path)).display(),
    );
    Ok(0)
}

/// Reads a journal file (which must exist) and its checkpoint sibling,
/// writing nothing.
fn read_journal_files(journal_path: &str) -> Result<JournalFiles, CliError> {
    let path = std::path::Path::new(journal_path);
    if !path.exists() {
        return Err(usage_error(format!("cannot read {journal_path:?}: no such file")));
    }
    JournalFiles::read(path).map_err(|e| usage_error(format!("{journal_path:?}: {e}")))
}
