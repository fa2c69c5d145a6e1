//! # feddrl-bench — experiment harness
//!
//! Every table and figure of the FedDRL paper ([`paper`]) and the
//! beyond-the-paper sweeps ([`sweeps`]), as named artifacts of the one
//! `exp_paper` binary (see docs/REPRODUCING.md for the index), and the
//! machinery they share. Each artifact runs at `--quick` (CI-sized), the
//! default scaled profile, or `--full` (paper-scale parameters), plus
//! overrides like `--rounds`.

#![warn(missing_docs)]

pub mod paper;
pub mod sweeps;

use feddrl::prelude::*;
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

/// Experiment scale profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke profile.
    Quick,
    /// Minutes-scale default, the profile docs/REPRODUCING.md reports.
    Default,
    /// Paper-scale parameters (hours on CPU).
    Full,
}

impl Scale {
    /// The profile's name, as its flag spells it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Communication rounds for federated runs.
    pub fn rounds(self) -> usize {
        match self {
            Scale::Quick => 15,
            Scale::Default => 60,
            Scale::Full => 1000,
        }
    }

    /// SingleSet epochs.
    pub fn singleset_epochs(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Default => 40,
            Scale::Full => 120,
        }
    }

    /// Hidden width of the DDPG networks (Table 1 uses 256; the quick
    /// profile shrinks it to keep CI fast).
    pub fn drl_hidden(self) -> usize {
        match self {
            Scale::Quick => 64,
            Scale::Default => 256,
            Scale::Full => 256,
        }
    }
}

/// Parsed command-line options shared by all artifacts.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Scale profile.
    pub scale: Scale,
    /// Override for the number of rounds.
    pub rounds: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Spawn real worker *processes* (not threads) where the artifact
    /// supports it (`net`): exercises discovery, heartbeat TTLs and
    /// mid-run process death over loopback.
    pub processes: bool,
}

impl ExpOptions {
    /// Parse the shared flags from `args`.
    ///
    /// # Panics
    /// Panics with a usage message on an unknown flag or a missing or
    /// malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self {
            scale: Scale::Default,
            rounds: None,
            seed: 2022,
            out_dir: PathBuf::from("results"),
            processes: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--full" => opts.scale = Scale::Full,
                "--processes" => opts.processes = true,
                "--rounds" => {
                    let v = args.next().expect("--rounds needs a value");
                    opts.rounds = Some(v.parse().expect("--rounds must be an integer"));
                }
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().expect("--out needs a value"));
                }
                other => panic!(
                    "unknown argument: {other} (try --quick/--full/--rounds N/--seed N/--out DIR/\
                     --processes)"
                ),
            }
        }
        opts
    }

    /// Rounds to run (override or scale default).
    pub fn rounds(&self) -> usize {
        self.rounds.unwrap_or_else(|| self.scale.rounds())
    }

    /// Ensure the output directory exists and return `out_dir/name`.
    pub fn out_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        self.out_dir.join(name)
    }
}

/// The three federated datasets of the paper (§4.1.1), in their synthetic
/// stand-in form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MNIST stand-in.
    MnistLike,
    /// Fashion-MNIST stand-in.
    FashionLike,
    /// CIFAR-100 stand-in.
    Cifar100Like,
}

impl DatasetKind {
    /// All three datasets in paper order.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::Cifar100Like,
            DatasetKind::FashionLike,
            DatasetKind::MnistLike,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "mnist-like",
            DatasetKind::FashionLike => "fashion-like",
            DatasetKind::Cifar100Like => "cifar100-like",
        }
    }

    /// Synthetic spec (the full-scale profile enlarges sample counts
    /// toward the real datasets' sizes).
    pub fn synth_spec(self, scale: Scale) -> SynthSpec {
        let mut spec = match self {
            DatasetKind::MnistLike => SynthSpec::mnist_like(),
            DatasetKind::FashionLike => SynthSpec::fashion_like(),
            DatasetKind::Cifar100Like => SynthSpec::cifar100_like(),
        };
        match scale {
            Scale::Quick => {
                spec.train_size /= 2;
                spec.test_size /= 2;
            }
            Scale::Default => {}
            Scale::Full => {
                spec.train_size *= 4;
                spec.test_size *= 4;
            }
        }
        spec
    }

    /// Client model for this dataset (MLP profiles; see
    /// docs/REPRODUCING.md, "Deviations from the paper", for why no
    /// profile trains the CNN/VGG-11 end-to-end).
    pub fn model_spec(self, train: &Dataset) -> ModelSpec {
        let hidden = match self {
            DatasetKind::MnistLike | DatasetKind::FashionLike => vec![64],
            DatasetKind::Cifar100Like => vec![128],
        };
        ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden,
            out_dim: train.num_classes(),
        }
    }

    /// Partition method for a paper code ("PA", "CE", "CN", "Equal",
    /// "Non-equal"), sized for this dataset's label space.
    pub fn partition_method(self, code: &str, delta: f64) -> PartitionMethod {
        let many_labels = matches!(self, DatasetKind::Cifar100Like);
        match code {
            "PA" => {
                if many_labels {
                    PartitionMethod::pa_cifar100()
                } else {
                    PartitionMethod::pa()
                }
            }
            "CE" => {
                if many_labels {
                    PartitionMethod::ce_cifar100(delta)
                } else {
                    PartitionMethod::ce(delta)
                }
            }
            "CN" => {
                if many_labels {
                    PartitionMethod::cn_cifar100(delta)
                } else {
                    PartitionMethod::cn(delta)
                }
            }
            "Equal" => PartitionMethod::shards_equal(),
            "Non-equal" => PartitionMethod::shards_non_equal(),
            "IID" => PartitionMethod::Iid,
            other => panic!("unknown partition code {other}"),
        }
    }
}

/// The compared methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Centralized reference.
    SingleSet,
    /// FedAvg baseline.
    FedAvg,
    /// FedProx baseline (μ = 0.01).
    FedProx,
    /// The paper's contribution.
    FedDrl,
}

impl MethodKind {
    /// The Table 3/4 method column, in paper order.
    pub fn all() -> [MethodKind; 4] {
        [
            MethodKind::SingleSet,
            MethodKind::FedAvg,
            MethodKind::FedProx,
            MethodKind::FedDrl,
        ]
    }

    /// Federated methods only.
    pub fn federated() -> [MethodKind; 3] {
        [MethodKind::FedAvg, MethodKind::FedProx, MethodKind::FedDrl]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::SingleSet => "SingleSet",
            MethodKind::FedAvg => "FedAvg",
            MethodKind::FedProx => "FedProx",
            MethodKind::FedDrl => "FedDRL",
        }
    }
}

/// What [`ExperimentSpec::materialize`] builds: train set, test set,
/// partition and client model.
pub type Env = (Dataset, Dataset, Partition, ModelSpec);

/// A fully-specified federated experiment.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Partition code ("PA", "CE", …).
    pub partition_code: String,
    /// Cluster-skew level δ where applicable.
    pub delta: f64,
    /// Total clients `N`.
    pub n_clients: usize,
    /// Participants per round `K`.
    pub participants: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Master seed.
    pub seed: u64,
    /// DDPG hidden width (scale-dependent).
    pub drl_hidden: usize,
}

impl ExperimentSpec {
    /// Build from options with paper defaults (δ = 0.6, K = 10).
    pub fn new(
        dataset: DatasetKind,
        partition_code: &str,
        n_clients: usize,
        opts: &ExpOptions,
    ) -> Self {
        Self {
            dataset,
            partition_code: partition_code.to_string(),
            delta: 0.6,
            n_clients,
            participants: 10.min(n_clients),
            rounds: opts.rounds(),
            seed: opts.seed,
            drl_hidden: opts.scale.drl_hidden(),
        }
    }

    /// Generate data, partition, and model for this experiment.
    pub fn materialize(&self, scale: Scale) -> Env {
        let (train, test) = self.dataset.synth_spec(scale).generate(self.seed);
        let method = self
            .dataset
            .partition_method(&self.partition_code, self.delta);
        let partition = method
            .partition(&train, self.n_clients, &mut Rng64::new(self.seed ^ 0x9A27))
            .unwrap_or_else(|e| panic!("partition {} failed: {e}", self.partition_code));
        let model = self.dataset.model_spec(&train);
        (train, test, partition, model)
    }

    /// Federated loop configuration.
    pub fn fl_config(&self) -> FlConfig {
        FlConfig {
            rounds: self.rounds,
            participants: self.participants,
            local: LocalTrainConfig {
                epochs: 5,
                batch_size: 10,
                lr: 0.01,
                ..Default::default()
            },
            eval_batch: 512,
            seed: self.seed,
            log_every: 0,
            selection: Selection::Uniform,
            executor: ExecutorConfig::Ideal,
            server_opt: ServerOptConfig::Plain,
        }
    }

    /// FedDRL run configuration.
    ///
    /// The agent's learning-speed knobs are adapted to the scaled horizon
    /// (tens of rounds instead of the paper's 1000): more replay updates
    /// per round, a faster policy/value learning rate, and annealed
    /// exploration so the late rounds exploit what was learned. Network
    /// topology, buffer, gamma and tau stay at Table 1 values.
    pub fn feddrl_config(&self) -> FedDrlRunConfig {
        let mut cfg = FedDrlRunConfig::default();
        cfg.feddrl.ddpg.hidden = self.drl_hidden;
        cfg.feddrl.ddpg.seed = self.seed ^ 0xD41;
        cfg.feddrl.seed = self.seed ^ 0xA1;
        if self.rounds < 500 {
            cfg.feddrl.ddpg.updates_per_round = 8;
            cfg.feddrl.ddpg.policy_lr = 1e-3;
            cfg.feddrl.ddpg.value_lr = 5e-3;
            cfg.feddrl.ddpg.warmup = 8;
            cfg.feddrl.ddpg.exploration_noise = 0.2;
            // Anneal to ~10% noise by the final third of the run.
            cfg.feddrl.ddpg.exploration_decay =
                (0.1f32).powf(1.0 / (0.67 * self.rounds as f32).max(1.0));
        }
        cfg
    }

    /// Run one method on this experiment.
    pub fn run_method(&self, method: MethodKind, scale: Scale) -> RunHistory {
        let env = self.materialize(scale);
        if method == MethodKind::SingleSet {
            let (train, test, _, model) = &env;
            let cfg = SingleSetConfig {
                epochs: scale.singleset_epochs(),
                seed: self.seed,
                ..Default::default()
            };
            let mut history = run_singleset(model, train, test, &cfg);
            history.dataset = self.dataset.name().to_string();
            return history;
        }
        let (fl_cfg, drl_cfg) = (self.fl_config(), self.feddrl_config());
        self.run_cell(&env, method, &fl_cfg, &drl_cfg, None)
    }

    /// Run one federated `method` over an already-materialized `env`
    /// under the given configs — one cell of a sweep, which starts from
    /// [`Self::fl_config`] / [`Self::feddrl_config`] and changes the few
    /// fields that make the cell. With `sim_budget_s` the run also stops
    /// once its cumulative simulated wall-clock crosses the budget — the
    /// equal-virtual-time harness asynchronous sweep cells are compared
    /// under: every cell may aggregate as often as it likes but gets the
    /// same amount of simulated time.
    ///
    /// # Panics
    /// Panics on an invalid config or a failed run, on
    /// [`MethodKind::SingleSet`] (not a federated method), and on a
    /// budgeted FedDRL cell: `try_run_feddrl` has no observer hook, so
    /// the budget could not be enforced — fail loudly rather than
    /// silently break an equal-time comparison.
    pub fn run_cell(
        &self,
        env: &Env,
        method: MethodKind,
        fl_cfg: &FlConfig,
        drl_cfg: &FedDrlRunConfig,
        sim_budget_s: Option<f64>,
    ) -> RunHistory {
        let (train, test, partition, model) = env;
        let name = self.dataset.name();
        let federated = |strategy: &mut dyn Strategy| -> RunHistory {
            let mut builder = SessionBuilder::new(model, train, test, partition, strategy)
                .config(fl_cfg)
                .dataset_name(name);
            if let Some(budget_s) = sim_budget_s {
                builder = builder.observer(Box::new(SimTimeBudget { budget_s }));
            }
            builder
                .build()
                .unwrap_or_else(|e| panic!("invalid experiment config: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("federated run failed: {e}"))
        };
        match method {
            MethodKind::SingleSet => panic!("SingleSet is not a federated cell"),
            MethodKind::FedAvg => federated(&mut FedAvg),
            MethodKind::FedProx => federated(&mut FedProx::default()),
            MethodKind::FedDrl => {
                assert!(
                    sim_budget_s.is_none(),
                    "FedDRL cells do not support a sim-time budget"
                );
                try_run_feddrl(model, train, test, partition, fl_cfg, drl_cfg, name)
                    .unwrap_or_else(|e| panic!("FedDRL run failed: {e}"))
                    .history
            }
        }
    }
}

/// Stops a run once its cumulative simulated wall-clock crosses a budget
/// ([`ExperimentSpec::run_cell`]). The session maintains the cumulative
/// clock in its [`RoundSignals`], so the observer is a pure threshold
/// check.
struct SimTimeBudget {
    /// Budget in simulated seconds.
    budget_s: f64,
}

impl RoundObserver for SimTimeBudget {
    fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl {
        if signals.sim_time_s >= self.budget_s {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(widths.iter()) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(widths.iter()) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// A sweep's results, kept once and written twice: as an aligned table
/// ([`render_table`]) for stdout and `<stem>.txt`, and as `<stem>.csv`.
pub(crate) struct SweepTable {
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    csv: String,
}

impl SweepTable {
    /// An empty table; each column is its (table header, CSV header) pair.
    pub fn new(columns: &[(&'static str, &'static str)]) -> Self {
        let csv_headers: Vec<&str> = columns.iter().map(|&(_, csv)| csv).collect();
        Self {
            headers: columns.iter().map(|&(table, _)| table).collect(),
            rows: Vec::new(),
            csv: csv_headers.join(",") + "\n",
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row has not one cell per column.
    pub fn push(&mut self, row: Row) {
        assert_eq!(row.table.len(), self.headers.len(), "one cell per column");
        self.csv.push_str(&row.csv.join(","));
        self.csv.push('\n');
        self.rows.push(row.table);
    }

    /// The aligned table.
    pub fn render(&self) -> String {
        render_table(&self.headers, &self.rows)
    }

    /// Write `<stem>.txt` and `<stem>.csv` under `opts.out_dir`.
    pub fn write(&self, opts: &ExpOptions, stem: &str) {
        write_artifact(&opts.out_path(&format!("{stem}.txt")), &self.render());
        write_artifact(&opts.out_path(&format!("{stem}.csv")), &self.csv);
    }
}

/// One row of a [`SweepTable`], built cell by cell.
#[derive(Debug, Default)]
pub(crate) struct Row {
    table: Vec<String>,
    csv: Vec<String>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cell written as `table` in the table and as `csv` in the CSV.
    pub fn cell(mut self, table: impl Display, csv: impl Display) -> Self {
        self.table.push(table.to_string());
        self.csv.push(csv.to_string());
        self
    }

    /// A cell written the same way in both: a label, a count.
    pub fn text(self, v: impl Display) -> Self {
        let v = v.to_string();
        self.cell(&v, &v)
    }

    /// A number: `prec` decimals in the table, its plain `Display` in the
    /// CSV.
    pub fn num(self, v: impl Display, prec: usize) -> Self {
        self.cell(format!("{v:.prec$}"), v)
    }
}

/// Write `content` to `path`, creating parent dirs.
pub fn write_artifact(path: &std::path::Path, content: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create artifact dir");
    }
    let mut f = std::fs::File::create(path).expect("create artifact");
    f.write_all(content.as_bytes()).expect("write artifact");
    eprintln!("wrote {}", path.display());
}

/// The paper's improvement metrics: impr.(a) vs the best baseline and
/// impr.(b) vs the worst baseline, in relative percent (Table 3 caption).
pub fn improvements(feddrl: f32, baselines: &[f32]) -> (f32, f32) {
    assert!(!baselines.is_empty());
    let best = baselines.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let worst = baselines.iter().copied().fold(f32::INFINITY, f32::min);
    (
        (feddrl - best) / best * 100.0,
        (feddrl - worst) / worst * 100.0,
    )
}

/// The file `table3` saves the run history of `(exp, method)` at `scale`
/// under, and [`load_or_run`] looks for. The scale is in the name because
/// the synthetic data and the DDPG width change with it.
pub(crate) fn history_file(exp: &ExperimentSpec, method: MethodKind, scale: Scale) -> String {
    format!(
        "table3_{}_{}_{}_{}_{}.json",
        exp.dataset.name(),
        exp.partition_code,
        exp.n_clients,
        scale.name(),
        method.name()
    )
}

/// Load the history `table3` saved for `(exp, method)` at `scale` if it
/// has exactly `exp.rounds` records and the same participants and seed,
/// otherwise run the method fresh. Lets the figures reuse `table3`'s
/// artifacts instead of re-running 30+ federated trainings. A longer run
/// is not reused: FedDRL's configuration depends on the round count.
pub fn load_or_run(
    opts: &ExpOptions,
    exp: &ExperimentSpec,
    method: MethodKind,
    scale: Scale,
) -> RunHistory {
    let path = opts.out_dir.join(history_file(exp, method, scale));
    if let Ok(h) = RunHistory::load_json(&path) {
        if h.records.len() == exp.rounds && h.participants == exp.participants && h.seed == exp.seed
        {
            eprintln!("reusing {}", path.display());
            return h;
        }
    }
    exp.run_method(method, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvements_match_definition() {
        let (a, b) = improvements(0.72, &[0.70, 0.68]);
        assert!((a - (0.72 - 0.70) / 0.70 * 100.0).abs() < 1e-4);
        assert!((b - (0.72 - 0.68) / 0.68 * 100.0).abs() < 1e-4);
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["method", "acc"],
            &[
                vec!["FedAvg".into(), "0.61".into()],
                vec!["FedDRL".into(), "0.645".into()],
            ],
        );
        assert!(t.contains("| method | acc   |"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn partition_methods_resolve_for_all_codes() {
        for ds in DatasetKind::all() {
            for code in ["PA", "CE", "CN", "Equal", "Non-equal", "IID"] {
                let _ = ds.partition_method(code, 0.6);
            }
        }
    }

    #[test]
    fn quick_experiment_end_to_end() {
        let opts = ExpOptions {
            scale: Scale::Quick,
            rounds: Some(2),
            seed: 7,
            out_dir: std::env::temp_dir().join("feddrl_bench_test"),
            processes: false,
        };
        let exp = ExperimentSpec::new(DatasetKind::MnistLike, "CE", 6, &opts);
        let h = exp.run_method(MethodKind::FedAvg, Scale::Quick);
        assert_eq!(h.records.len(), 2);
        assert_eq!(h.dataset, "mnist-like");
        assert_eq!(h.partition, "CE");
        // `run_cell` under the spec's own configs is `run_method`
        // (wall-clock `*_micros` aside).
        let cell = exp.run_cell(
            &exp.materialize(Scale::Quick),
            MethodKind::FedAvg,
            &exp.fl_config(),
            &exp.feddrl_config(),
            None,
        );
        let trace = |h: &RunHistory| -> Vec<(f32, Vec<usize>, Vec<f32>)> {
            h.records
                .iter()
                .map(|r| {
                    (
                        r.test_accuracy,
                        r.selected.clone(),
                        r.impact_factors.clone(),
                    )
                })
                .collect()
        };
        assert_eq!(trace(&cell), trace(&h));
    }

    /// The figures reuse only a `table3` history of the same scale and
    /// exactly the asked round count: a longer run, under the name that
    /// left the scale out or under its own, is not cut down and returned.
    #[test]
    fn figures_reuse_only_a_history_of_the_same_setting() {
        let out_dir =
            std::env::temp_dir().join(format!("feddrl_bench_reuse_{}", std::process::id()));
        let opts = ExpOptions {
            scale: Scale::Quick,
            rounds: Some(2),
            seed: 7,
            out_dir: out_dir.clone(),
            processes: false,
        };
        let exp = ExperimentSpec::new(DatasetKind::MnistLike, "CE", 6, &opts);
        let (method, name) = (
            MethodKind::FedAvg,
            history_file(&exp, MethodKind::FedAvg, Scale::Quick),
        );
        let mut planted = exp.run_method(method, Scale::Quick);
        planted.method = "planted".into();
        let save = |h: &RunHistory, file: &str| h.save_json(&opts.out_path(file)).unwrap();
        let reused = || load_or_run(&opts, &exp, method, Scale::Quick).method == "planted";
        save(&planted, &name);
        assert!(reused(), "a history of the same setting is reused");
        planted.records.push(planted.records[1].clone());
        save(&planted, "table3_mnist-like_CE_6_FedAvg.json");
        save(&planted, &name);
        assert!(!reused(), "a longer history is not cut down and reused");
        assert_ne!(name, history_file(&exp, method, Scale::Default));
        std::fs::remove_dir_all(&out_dir).unwrap();
    }

    #[test]
    fn paper_artifact_table_matches_the_documented_names() {
        let names: Vec<&str> = paper::ARTIFACTS.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate artifact name");
        assert!(names.iter().all(|n| paper::artifact(n).is_some()));
        assert!(paper::artifact("fig2").is_none());
        // docs/REPRODUCING.md invokes each artifact as `exp_paper -- <name>`.
        let doc = include_str!("../../../docs/REPRODUCING.md");
        let mut documented: Vec<&str> = doc
            .split("--bin exp_paper -- ")
            .skip(1)
            .filter_map(|rest| rest.split(|c: char| !c.is_ascii_alphanumeric()).next())
            .filter(|name| !name.is_empty())
            .collect();
        documented.sort_unstable();
        documented.dedup();
        assert_eq!(documented, unique);
    }
}
