//! The fault-injection harness: every corruption in the catalog must
//! yield a typed error or a correct answer — never a panic (verified
//! with `catch_unwind`), never a wrong distance (verified against
//! Dijkstra).

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::SeedableRng;
use spsep_core::SpsepError;
use spsep_graph::DiGraph;
use spsep_separator::{builders, RecursionLimits, SepTree};
use spsep_testkit::{
    import_corruptions, instance_corruptions, text_corruptions, ImportInput, TextFormat,
};

fn no_panic<T>(name: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("corruption '{name}' caused a panic"),
    }
}

fn valid_instance() -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let (g, _) = spsep_graph::generators::grid(&[9, 8], &mut rng);
    let tree = builders::grid_tree(&[9, 8], RecursionLimits::default());
    (g, tree)
}

/// Valid serializations of one instance, in both text formats.
fn valid_texts() -> (String, String) {
    let (g, tree) = valid_instance();
    let mut gbuf = Vec::new();
    spsep_graph::io::write_dimacs(&g, &mut gbuf).unwrap();
    let mut tbuf = Vec::new();
    spsep_separator::io::write_tree(&tree, &mut tbuf).unwrap();
    (
        String::from_utf8(gbuf).unwrap(),
        String::from_utf8(tbuf).unwrap(),
    )
}

fn parse(format: TextFormat, text: &str) -> Result<(), SpsepError> {
    match format {
        TextFormat::Graph => spsep_graph::io::read_dimacs(text.as_bytes()).map(|_| ()),
        TextFormat::Tree => spsep_separator::io::read_tree(text.as_bytes()).map(|_| ()),
    }
}

#[test]
fn catalog_has_at_least_ten_corruption_kinds() {
    assert!(text_corruptions().len() + instance_corruptions().len() >= 10);
}

#[test]
fn uncorrupted_texts_parse_cleanly() {
    // Control: the corruptions below prove something only if the
    // pristine serializations are accepted.
    let (g, t) = valid_texts();
    parse(TextFormat::Graph, &g).unwrap();
    parse(TextFormat::Tree, &t).unwrap();
}

#[test]
fn every_text_corruption_is_rejected_with_a_typed_error() {
    let (gtext, ttext) = valid_texts();
    for c in text_corruptions() {
        let source = match c.format {
            TextFormat::Graph => &gtext,
            TextFormat::Tree => &ttext,
        };
        let corrupted = (c.apply)(source);
        assert_ne!(
            &corrupted, source,
            "corruption '{}' did not change the text",
            c.name
        );
        let result = no_panic(c.name, || parse(c.format, &corrupted));
        let Err(err) = result else {
            panic!("corruption '{}' parsed successfully", c.name);
        };
        // Errors must be presentable (non-empty Display) and typed.
        assert!(!err.to_string().is_empty());
        match err {
            SpsepError::Parse { .. } | SpsepError::InvalidDecomposition { .. } => {}
            other => panic!("corruption '{}': unexpected error kind {other:?}", c.name),
        }
    }
}

#[test]
fn every_instance_corruption_is_a_typed_error_or_a_correct_answer() {
    for inst in instance_corruptions() {
        let n = inst.graph.n();
        no_panic(inst.name, || inst.assert_contract(&[0, n / 2, n - 1]));
    }
}

#[test]
fn every_import_corruption_is_rejected_with_a_typed_error() {
    // The ingestion layer's contract (ISSUE 10): every malformed raw
    // road-network instance — DIMACS text, CSV edge list, or binary CSR
    // directory — is a typed `SpsepError`, never a panic.
    let tmp = std::env::temp_dir().join(format!("spsep-import-corrupt-{}", std::process::id()));
    for (i, c) in import_corruptions().into_iter().enumerate() {
        let result: Result<(), SpsepError> = no_panic(c.name, || match &c.input {
            ImportInput::Gr(text) => spsep_graph::io::read_dimacs(text.as_bytes()).map(|_| ()),
            ImportInput::Ss { text, n } => {
                spsep_graph::import::read_ss(text.as_bytes(), *n).map(|_| ())
            }
            ImportInput::Csv(text) => {
                spsep_graph::import::read_csv_edges(text.as_bytes()).map(|_| ())
            }
            ImportInput::CsrDir {
                first_out,
                head,
                weight,
            } => {
                let dir = tmp.join(format!("case-{i}"));
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(dir.join("first_out"), first_out).unwrap();
                std::fs::write(dir.join("head"), head).unwrap();
                std::fs::write(dir.join("weight"), weight).unwrap();
                spsep_graph::import::read_csr_dir(&dir).map(|_| ())
            }
        });
        let Err(err) = result else {
            panic!("import corruption '{}' parsed successfully", c.name);
        };
        assert!(!err.to_string().is_empty());
        match err {
            SpsepError::Parse { .. } => {}
            other => panic!(
                "import corruption '{}': unexpected error kind {other:?}",
                c.name
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn uncorrupted_import_inputs_parse_cleanly() {
    // Control for the corruption test above: pristine inputs in each of
    // the four raw formats are accepted by the same entry points.
    let gr = "p sp 3 3\na 1 2 1.5\na 2 3 2.0\na 3 1 0.5\n";
    let g = spsep_graph::io::read_dimacs(gr.as_bytes()).unwrap();
    assert_eq!((g.n(), g.m()), (3, 3));
    let sources = spsep_graph::import::read_ss("p aux sp ss 2\ns 1\ns 3\n".as_bytes(), 3).unwrap();
    assert_eq!(sources, vec![0, 2]);
    let csv = "from,to,weight\n0,1,1.5\n1,2,2.0\n2,0,0.5\n";
    let g = spsep_graph::import::read_csv_edges(csv.as_bytes()).unwrap();
    assert_eq!((g.n(), g.m()), (3, 3));
    let dir = std::env::temp_dir().join(format!("spsep-import-clean-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let le = |words: &[u32]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    std::fs::write(dir.join("first_out"), le(&[0, 1, 2, 3])).unwrap();
    std::fs::write(dir.join("head"), le(&[1, 2, 0])).unwrap();
    std::fs::write(dir.join("weight"), le(&[15, 20, 5])).unwrap();
    let g = spsep_graph::import::read_csr_dir(&dir).unwrap();
    assert_eq!((g.n(), g.m()), (3, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_trees_that_assemble_are_caught_by_preflight_not_trusted() {
    // Every corrupted tree that survives try_assemble must be refused
    // by validate_instance (which is what makes `Oracle::prepare` return
    // InvalidDecomposition above) — otherwise queries would run on a
    // broken decomposition.
    for inst in instance_corruptions() {
        if inst.absorbing {
            continue;
        }
        if let Ok(tree) = &inst.tree {
            let verdict = spsep_core::validate_instance(&inst.graph, tree);
            assert!(
                verdict.is_err(),
                "'{}': corrupted tree passed pre-flight validation",
                inst.name
            );
        }
    }
}
