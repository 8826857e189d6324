//! `recover --verify` ≡ `recover`, rung by rung.
//!
//! The dry run prints the [`RecoveryPlan`](bschema_core::RecoveryPlan)
//! that `recover` executes, so on every rung of the ladder — including
//! the schema-adoption rung and the fatal ones — the two must agree on
//! the exit code, the checkpoint verdict, the number of transactions
//! replayed and (when fatal) the reason.

use bschema_core::schema::dsl::parse_schema;
use bschema_core::ManagedDirectory;
use bschema_directory::{ldif, DirectoryInstance};
use bschema_server::DirectoryService;

const SCHEMA: &str = "\
schema \"t\"
class orgGroup extends top
class organization extends orgGroup
class orgUnit extends orgGroup
class person extends top
  require uid name
require-class person
require orgGroup descendant person
forbid person child top
";

const LDIF: &str = "\
dn: o=acme
objectClass: organization
objectClass: orgGroup
objectClass: top

dn: uid=a,o=acme
objectClass: person
objectClass: top
uid: a
name: a
";

fn write_tmp(name: &str, content: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("bschema-verify-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

fn run_ok(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = bschema_cli::run(&args, &mut out).unwrap_or_else(|e| panic!("cli error: {e}"));
    (code, out)
}

/// The unsigned number right after `marker` in `out`.
fn number_after(out: &str, marker: &str) -> usize {
    let rest =
        &out[out.find(marker).unwrap_or_else(|| panic!("{marker:?} in {out}")) + marker.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().expect("number")
}

/// `recover --verify` prints the very plan `recover` executes: same
/// exit code, same checkpoint verdict, same number of transactions
/// replayed, and on the fatal rungs the same reason.
fn assert_verify_matches_recover(rung: &str, schema: &str, data: &str, journal: &str) -> String {
    let before = std::fs::read(journal).unwrap();
    let (verify_code, verify) = run_ok(&["recover", schema, data, journal, "--verify"]);
    assert_eq!(std::fs::read(journal).unwrap(), before, "{rung}: verify wrote");
    let (code, real) = run_ok(&["recover", schema, data, journal]);
    assert_eq!(verify_code, code, "{rung}: exit codes differ\n{verify}\n{real}");
    if code != 0 {
        let why = verify
            .lines()
            .find_map(|l| l.strip_prefix("VERIFY FAILED: "))
            .and_then(|l| l.strip_suffix(" — recovery would be refused"))
            .unwrap_or_else(|| panic!("{rung}: no VERIFY FAILED line in {verify}"));
        assert!(real.contains(why), "{rung}: recover failed for another reason\n{verify}\n{real}");
        return verify;
    }
    let replayed = number_after(&real, "replayed ");
    if real.contains("checkpoint: restored snapshot covering seq ") {
        let seq = number_after(&real, "restored snapshot covering seq ");
        assert!(verify.contains("checkpoint: intact"), "{rung}: {verify}");
        assert_eq!(number_after(&verify, "recovery point: checkpoint seq "), seq, "{rung}");
        assert_eq!(number_after(&verify, " + "), replayed, "{rung}: {verify}\n{real}");
    } else {
        assert_eq!(number_after(&verify, "full replay, "), replayed, "{rung}: {verify}\n{real}");
        assert_eq!(
            real.contains("checkpoint: unusable"),
            verify.contains("checkpoint: UNUSABLE"),
            "{rung}: {verify}\n{real}"
        );
    }
    verify
}

#[test]
fn recover_verify_reports_the_plan_recover_executes_on_every_rung() {
    let schema = write_tmp("s27.bs", SCHEMA);
    let data = write_tmp("d27.ldif", LDIF);
    let journal = write_tmp("j27.jrn", "");
    let ckpt = format!("{journal}.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let tx = |uid: &str| {
        write_tmp(
            &format!("t27{uid}.ldif"),
            &format!("dn: uid={uid},o=acme\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"),
        )
    };
    let apply = |uid: &str| {
        let (code, out) = run_ok(&["apply", &schema, &data, &tx(uid), "--journal", &journal]);
        assert_eq!(code, 0, "{out}");
    };
    let checkpoint = || {
        let (code, out) = run_ok(&["checkpoint", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
    };

    // Full replay: no checkpoint, complete journal.
    apply("b");
    let out = assert_verify_matches_recover("full replay", &schema, &data, &journal);
    assert!(out.contains("checkpoint: none"), "{out}");

    // A torn checkpoint beside a complete journal is ignored.
    std::fs::write(&ckpt, "bschema-ckpt v1 len=9999 sum=0\ngarbage").unwrap();
    let out = assert_verify_matches_recover("ignored checkpoint", &schema, &data, &journal);
    assert!(out.contains("checkpoint: UNUSABLE"), "{out}");
    let full_history = std::fs::read_to_string(&journal).unwrap();

    // Steady state: checkpoint + tail.
    checkpoint();
    let first_ckpt = std::fs::read_to_string(&ckpt).unwrap();
    apply("c");
    let out = assert_verify_matches_recover("checkpoint + tail", &schema, &data, &journal);
    assert!(out.contains("+ 1 tail tx(s) would replay"), "{out}");
    let tail = std::fs::read_to_string(&journal).unwrap();

    // Crash before truncation: checkpoint + the full journal.
    std::fs::write(&journal, format!("{full_history}{tail}")).unwrap();
    let out = assert_verify_matches_recover("untruncated journal", &schema, &data, &journal);
    assert!(out.contains("+ 1 tail tx(s) would replay"), "{out}");
    std::fs::write(&journal, &tail).unwrap();

    // Fatal: the truncated journal's checkpoint is torn, or gone.
    std::fs::write(&ckpt, &first_ckpt[..first_ckpt.len() / 2]).unwrap();
    let out = assert_verify_matches_recover("torn checkpoint", &schema, &data, &journal);
    assert!(out.contains("VERIFY FAILED") && out.contains("unusable"), "{out}");
    std::fs::remove_file(&ckpt).unwrap();
    let out = assert_verify_matches_recover("missing checkpoint", &schema, &data, &journal);
    assert!(out.contains("VERIFY FAILED") && out.contains("missing"), "{out}");

    // Fatal: a gap between the checkpoint and the journal's start.
    std::fs::write(&ckpt, &first_ckpt).unwrap();
    checkpoint();
    apply("d");
    std::fs::write(&ckpt, &first_ckpt).unwrap();
    let out = assert_verify_matches_recover("gap", &schema, &data, &journal);
    assert!(out.contains("records in between are missing"), "{out}");

    // Adoption: a checkpoint taken after a journalled schema
    // evolution restores under its own embedded schema although the
    // boot schema file still holds the epoch-0 ancestor.
    std::fs::write(&journal, "").unwrap();
    std::fs::remove_file(&ckpt).unwrap();
    {
        let parsed = parse_schema(SCHEMA).unwrap();
        let mut dir = DirectoryInstance::new(parsed.registry.clone());
        ldif::load_into_limited(&mut dir, LDIF, &Default::default()).unwrap();
        let managed = ManagedDirectory::with_instance(parsed.schema, dir).unwrap();
        let (svc, _) = DirectoryService::new(managed).with_journal(&journal).unwrap();
        svc.schema_propose("allow-attr person nickname\n").unwrap();
        svc.schema_commit().unwrap();
        svc.checkpoint_now().unwrap();
        svc.apply_ldif_tx(
            "dn: uid=n,o=acme\nobjectClass: person\nobjectClass: top\nuid: n\nname: n\nnickname: nn\n",
        )
        .unwrap();
    }
    let out = assert_verify_matches_recover("adoption", &schema, &data, &journal);
    assert!(out.contains("adopting the checkpoint's embedded schema"), "{out}");
    assert!(out.contains("+ 1 tail tx(s) would replay"), "{out}");
    let _ = std::fs::remove_file(&ckpt);
}
