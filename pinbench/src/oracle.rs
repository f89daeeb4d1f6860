//! Ground truth for generator projects: every real injected defect is
//! reported, no path-infeasible decoy is.

use pinpoint::workload::InjectedBug;

/// The function names a rendered report array (`reports_json`, alone or
/// embedded in a serve reply) names as a source or a sink.
fn reported_functions(reports: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for key in ["\"source_function\":\"", "\"sink_function\":\""] {
        for (at, _) in reports.match_indices(key) {
            let rest = &reports[at + key.len()..];
            // Generated function names are identifiers: no escapes to undo.
            names.push(&rest[..rest.find('"').unwrap_or(rest.len())]);
        }
    }
    names
}

/// Checks `reports` against the project's injected defects. Defect
/// functions are named `<marker>driver`, `<marker>fill`, ….
pub fn check_markers(reports: &str, bugs: &[InjectedBug]) -> Result<(), String> {
    let names = reported_functions(reports);
    for bug in bugs {
        let reported = names.iter().any(|n| n.starts_with(&bug.marker));
        if bug.real && !reported {
            return Err(format!("real defect `{}` not reported", bug.marker));
        }
        if !bug.real && reported {
            return Err(format!("decoy `{}` reported", bug.marker));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint::workload::BugKind;

    fn bug(id: usize, real: bool) -> InjectedBug {
        InjectedBug {
            id,
            kind: BugKind::UseAfterFree,
            real,
            marker: format!("bug{id}_"),
        }
    }

    #[test]
    fn accepts_exactly_the_real_defects() {
        let reports =
            r#"[{"property":"uaf","source_function":"bug1_fill","sink_function":"bug1_driver"}]"#;
        assert!(check_markers(reports, &[bug(1, true), bug(10, false)]).is_ok());
        assert!(check_markers(reports, &[bug(1, true), bug(2, true)]).is_err());
        assert!(check_markers(reports, &[bug(1, false)]).is_err());
        assert!(check_markers("[]", &[bug(1, true)]).is_err());
    }
}
