//! The workload driver: runs per-client op generators on the
//! discrete-event engine (one host thread, causal virtual-time order,
//! deterministic).

use crate::client::SimClient;
use crate::ops::{exec_op, Op, OpGen, OpState};
use arkfs_simkit::{Actor, Engine, Nanos, ThroughputMeter};
use std::sync::Arc;

/// Outcome of driving one fleet of generators.
#[derive(Debug, Clone, Default)]
pub struct DriveReport {
    /// Per-client executed op count.
    pub ops: Vec<u64>,
    /// Per-client error count.
    pub errors: Vec<u64>,
    /// Per-client op outcomes in generation order (`true` = ok), for
    /// differential checks against a reference.
    pub outcomes: Vec<Vec<bool>>,
}

impl DriveReport {
    pub fn total_errors(&self) -> u64 {
        self.errors.iter().sum()
    }
}

/// One simulated client bound to its op stream: the engine's actor.
struct ClientActor<'a, G> {
    client: &'a Arc<dyn SimClient>,
    gen: G,
    state: OpState,
    /// Next op, pre-fetched so `now()` can be consulted before stepping.
    pending: Option<Op>,
    meter: Option<&'a ThroughputMeter>,
    ops: u64,
    errors: u64,
    outcomes: Vec<bool>,
}

impl<'a, G: OpGen> ClientActor<'a, G> {
    fn new(client: &'a Arc<dyn SimClient>, mut gen: G, meter: Option<&'a ThroughputMeter>) -> Self {
        let pending = gen.next_op();
        ClientActor {
            client,
            gen,
            state: OpState::new(),
            pending,
            meter,
            ops: 0,
            errors: 0,
            outcomes: Vec::new(),
        }
    }
}

impl<G: OpGen> Actor for ClientActor<'_, G> {
    fn now(&self) -> Nanos {
        self.client.port().now()
    }

    fn step(&mut self) -> bool {
        let Some(op) = self.pending.take() else {
            return false;
        };
        let t0 = self.client.port().now();
        let ok = exec_op(self.client.as_ref(), &mut self.state, &op).is_ok();
        if let Some(meter) = self.meter {
            if !matches!(op, Op::Unmetered(_)) {
                meter.record_latency(self.client.port().now().saturating_sub(t0));
            }
        }
        self.ops += 1;
        if !ok {
            self.errors += 1;
        }
        self.outcomes.push(ok);
        self.pending = self.gen.next_op();
        self.pending.is_some()
    }
}

/// Drive one generator per client. `clients` and `gens` pair up by
/// index (the same client may appear more than once — e.g. several
/// workers multiplexed onto one mounted client). When `meter` is given,
/// every op's virtual-time latency is recorded on it.
pub fn run_ops(
    clients: &[Arc<dyn SimClient>],
    gens: Vec<Box<dyn OpGen>>,
    meter: Option<&ThroughputMeter>,
) -> DriveReport {
    assert_eq!(
        clients.len(),
        gens.len(),
        "one generator per client required"
    );
    let mut actors: Vec<ClientActor<Box<dyn OpGen>>> = clients
        .iter()
        .zip(gens)
        .map(|(c, g)| ClientActor::new(c, g, meter))
        .collect();
    Engine::run(&mut actors);
    let mut report = DriveReport::default();
    for a in actors {
        report.ops.push(a.ops);
        report.errors.push(a.errors);
        report.outcomes.push(a.outcomes);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gen_iter;
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use arkfs_vfs::Credentials;

    fn fleet(n: usize) -> Vec<Arc<dyn SimClient>> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
        (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect()
    }

    fn create_gens(n: usize, per: u64) -> Vec<Box<dyn OpGen>> {
        (0..n)
            .map(|i| {
                gen_iter((0..per).map(move |j| Op::Create {
                    path: format!("/w/p{i}-f{j}"),
                }))
            })
            .collect()
    }

    #[test]
    fn engine_drive_executes_everything() {
        let clients = fleet(4);
        clients[0].mkdir(&Credentials::root(), "/w", 0o755).unwrap();
        let meter = ThroughputMeter::new();
        let report = run_ops(&clients, create_gens(4, 8), Some(&meter));
        assert_eq!(report.ops, vec![8, 8, 8, 8]);
        assert_eq!(report.total_errors(), 0);
        assert_eq!(meter.latency_samples(), 32);
        assert!(report.outcomes.iter().all(|o| o.iter().all(|&b| b)));
        assert_eq!(
            clients[0]
                .readdir(&Credentials::root(), "/w")
                .unwrap()
                .len(),
            32
        );
    }

    #[test]
    fn errors_are_counted_per_client() {
        let clients = fleet(2);
        let gens: Vec<Box<dyn OpGen>> = vec![
            gen_iter(std::iter::once(Op::Stat {
                path: "/missing".into(),
            })),
            gen_iter(std::iter::once(Op::Mkdir { path: "/ok".into() })),
        ];
        let report = run_ops(&clients, gens, None);
        assert_eq!(report.errors, vec![1, 0]);
        assert_eq!(report.outcomes, vec![vec![false], vec![true]]);
    }

    #[test]
    fn unmetered_ops_skip_the_latency_distribution() {
        let clients = fleet(1);
        let meter = ThroughputMeter::new();
        let gens: Vec<Box<dyn OpGen>> = vec![gen_iter(
            [
                Op::Unmetered(Box::new(Op::Mkdir { path: "/w".into() })),
                Op::Create {
                    path: "/w/f0".into(),
                },
                Op::Create {
                    path: "/w/f1".into(),
                },
                Op::Unmetered(Box::new(Op::SyncAll)),
            ]
            .into_iter(),
        )];
        let report = run_ops(&clients, gens, Some(&meter));
        // All four ops executed, but only the two creates were sampled.
        assert_eq!(report.ops, vec![4]);
        assert_eq!(meter.latency_samples(), 2);
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let clients = fleet(8);
            clients[0].mkdir(&Credentials::root(), "/w", 0o755).unwrap();
            let meter = ThroughputMeter::new();
            run_ops(&clients, create_gens(8, 16), Some(&meter));
            for c in &clients {
                meter.record_span(16, 0, c.port().now());
            }
            meter.finish("create")
        };
        assert_eq!(run(), run());
    }
}
