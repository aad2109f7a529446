//! Serde round-trips across the public result types: anything a user might
//! persist (analyses, reports, datasets, models) must survive JSON.

use fiveg_onoff::prelude::*;
use onoff_predict::{S1Model, S1e3Model};
use onoff_sim::TraceBuilder;

fn nr(pci: u16, arfcn: u32) -> CellId {
    CellId::nr(Pci(pci), arfcn)
}

fn looping_events() -> Vec<onoff_rrc::trace::TraceEvent> {
    let mut b = TraceBuilder::new();
    for k in 0..3u64 {
        b = b
            .at(k * 40_000)
            .establish(nr(393, 521310))
            .after(3_000)
            .add_scells(&[nr(273, 387410), nr(273, 398410)])
            .after(2_000)
            .report(
                Some("A3"),
                &[
                    (nr(273, 387410), -85.0, -14.5),
                    (nr(371, 387410), -78.0, -11.5),
                ],
            )
            .after(100)
            .scell_mod(1, nr(371, 387410), true)
            .throughput(0.0);
    }
    b.build()
}

#[test]
fn run_analysis_roundtrips_through_json() {
    let analysis = analyze_trace(&looping_events());
    assert!(analysis.has_loop());
    let json = serde_json::to_string(&analysis).expect("serialize");
    let back: onoff_detect::RunAnalysis = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, analysis);
}

#[test]
fn loop_report_roundtrips_through_json() {
    let report = fiveg_onoff::analyze_events(&looping_events());
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: fiveg_onoff::LoopReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.findings[0].loop_type, LoopType::S1E3);
}

#[test]
fn trace_events_roundtrip_through_json() {
    let events = looping_events();
    let json = serde_json::to_string(&events).unwrap();
    let back: Vec<onoff_rrc::trace::TraceEvent> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, events);
}

#[test]
fn models_roundtrip_through_json() {
    let m = S1e3Model {
        k: 0.45,
        t: 13.0,
        n: 2.2,
    };
    let back: S1e3Model = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(back, m);
    let s1 = S1Model {
        e3: m,
        e12_k: 0.3,
        e12_mid_dbm: -111.0,
    };
    let back: S1Model = serde_json::from_str(&serde_json::to_string(&s1).unwrap()).unwrap();
    assert_eq!(back, s1);
}

#[test]
fn policies_roundtrip_through_json() {
    for policy in [op_t_policy(), op_a_policy(), op_v_policy()] {
        let json = serde_json::to_string(&policy).unwrap();
        let back: onoff_policy::OperatorPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, policy);
    }
}

#[test]
fn radio_environment_roundtrips_with_defaults() {
    // Older serialized environments lack the salt/bias fields; serde
    // defaults must fill them.
    let env = RadioEnvironment::new(7, Vec::new());
    let mut value: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&env).unwrap()).unwrap();
    let obj = value.as_object_mut().unwrap();
    obj.remove("fading_salt");
    obj.remove("run_bias_sigma_db");
    let back: RadioEnvironment = serde_json::from_value(value).unwrap();
    assert_eq!(back.fading_salt, 0);
    assert_eq!(back.run_bias_sigma_db, 0.0);
}
