//! Markdown link check over the repo's documentation set: every
//! relative link in the orientation docs must point at a file that
//! exists (CI runs this, so a renamed file cannot silently orphan the
//! handbook or the experiment index).

use std::path::{Path, PathBuf};

const DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/HANDBOOK.md",
    "data/README.md",
];

/// Extract `(link text, target)` pairs from inline markdown links,
/// skipping fenced code blocks (``` … ```) where `[x](y)` is code.
fn links(markdown: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(open) = line[i..].find('[') {
            let open = i + open;
            // Skip image links' leading '!' handling: same target rules.
            let Some(close) = line[open..].find("](") else {
                break;
            };
            let close = open + close;
            let target_start = close + 2;
            let Some(end) = line[target_start..].find(')') else {
                break;
            };
            let end = target_start + end;
            // Reference-style checklists like "[ ]" have no "](", so we
            // only land here for real inline links.
            if bytes[open..close].contains(&b'\n') {
                break;
            }
            out.push((
                line[open + 1..close].to_string(),
                line[target_start..end].to_string(),
            ));
            i = end + 1;
        }
    }
    out
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        let doc_path = root.join(doc);
        let text =
            std::fs::read_to_string(&doc_path).unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        let base = doc_path.parent().unwrap().to_path_buf();
        for (label, target) in links(&text) {
            // External and in-page links are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            // Strip a trailing anchor: FILE.md#section → FILE.md.
            let file_part = target.split('#').next().unwrap();
            if file_part.is_empty() {
                continue;
            }
            let resolved: PathBuf = base.join(file_part);
            checked += 1;
            if !resolved.exists() {
                broken.push(format!(
                    "{doc}: [{label}]({target}) → {}",
                    resolved.display()
                ));
            }
        }
    }
    assert!(
        checked >= 10,
        "only {checked} relative links found — the extractor is probably broken"
    );
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn orientation_docs_cross_link_the_handbook() {
    // The handbook is only useful if people can find it: README and
    // ARCHITECTURE must link it, and it must link back to data/README.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in ["README.md", "ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        assert!(
            text.contains("docs/HANDBOOK.md"),
            "{doc} does not link docs/HANDBOOK.md"
        );
    }
    let handbook = std::fs::read_to_string(root.join("docs/HANDBOOK.md")).unwrap();
    assert!(handbook.contains("data/README.md"));
}
