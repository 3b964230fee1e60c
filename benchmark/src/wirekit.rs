//! The request and response lines of wire protocol 2, built the way the
//! typed client builds them, for the layers that are timed or replayed
//! apart from a socket.

use crate::fixture::{err, Res};
use cwelmax_engine::wire;
use cwelmax_engine::CampaignQuery;
use serde_json::{Map, Value};

/// The line `CwelmaxClient::query` sends for `q`.
pub fn query_line(q: &CampaignQuery) -> String {
    let mut obj = match wire::query_to_value(q) {
        Value::Object(m) => m,
        _ => Map::new(),
    };
    obj.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
    wire::to_line(&Value::Object(obj))
}

/// The line `CwelmaxClient::query_batch` sends for `queries`.
pub fn batch_line(queries: &[CampaignQuery]) -> String {
    let mut m = Map::new();
    m.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
    m.insert("type".into(), Value::String("batch".into()));
    m.insert(
        "queries".into(),
        Value::Array(queries.iter().map(wire::query_to_value).collect()),
    );
    wire::to_line(&Value::Object(m))
}

/// Parse a response line into a value tree, the client's first and most
/// expensive decoding step.
pub fn decode(line: &str) -> Res<Value> {
    serde_json::from_str(line).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{hot_universe, query};
    use crate::ops::TABLE;
    use cwelmax_engine::wire::{parse_request_line, Protocol, RequestKind};

    #[test]
    fn lines_parse_back_as_the_requests_they_encode() {
        let u = hot_universe(&TABLE);
        let single = parse_request_line(&query_line(&u[5])).unwrap();
        assert_eq!(single.proto, Protocol::V2);
        match single.kind {
            RequestKind::Query(q) => {
                assert_eq!(q.budgets, u[5].budgets);
                assert_eq!(q.sim.samples, u[5].sim.samples);
                assert_eq!(q.sim.base_seed, u[5].sim.base_seed);
            }
            other => panic!("expected a query, got {other:?}"),
        }
        let big = query(
            0,
            [3, 4],
            cwelmax_engine::QueryAlgorithm::MaxGrd,
            Default::default(),
            200,
            (1 << 40) - 1,
        );
        match parse_request_line(&batch_line(&[u[1].clone(), big]))
            .unwrap()
            .kind
        {
            RequestKind::Batch(entries) => {
                assert_eq!(entries.len(), 2);
                let q = entries[1].as_ref().unwrap();
                assert_eq!(q.sim.base_seed, (1 << 40) - 1);
                assert_eq!(q.algorithm, cwelmax_engine::QueryAlgorithm::MaxGrd);
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        assert!(decode("{\"ok\":true}").is_ok());
        assert!(decode("{").is_err());
    }
}
