//! Guards the probe surface recorded in `SURFACE.md`: the benchmark is
//! frozen for the PRs it judges, so it must not call anything ROADMAP
//! slates for deletion.

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// Identifiers that are deprecated or scheduled to go.
    const FORBIDDEN: [&str; 16] = [
        "shw_rebuild",
        "satisfy_jacobi",
        "soft::reference",
        "IncrementalSweep",
        "CtdInstance::extend",
        "extend_budgeted",
        "extend_deps",
        "satisfy_extend",
        "try_shw",
        "shw_cached",
        "import_",
        "export_",
        "ServiceState",
        "handle_tagged",
        "handle_batch",
        "handle_traced",
    ];

    #[test]
    fn benchmark_sources_stay_on_the_stable_surface() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut checked = 0;
        for entry in std::fs::read_dir(&src).expect("benchmark/src is readable") {
            let path = entry.expect("directory entry").path();
            // This file names the identifiers in order to forbid them.
            if path.file_name().is_some_and(|n| n == "surface.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
            for needle in FORBIDDEN {
                assert!(
                    !text.contains(needle),
                    "{} uses `{needle}`, which is off the surface in SURFACE.md",
                    path.display()
                );
            }
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} source files were checked");
    }
}
