//! `inline-dr` — command-line driver for the reduction pipeline.
//!
//! ```text
//! inline-dr run [--mb N] [--dedup R] [--comp R] [--mode M] [--verify] [--metrics]
//!               [--trace FILE]
//! inline-dr check run|replay ...
//! inline-dr calibrate [--gpu hd7970|igpu|dgpu]
//! inline-dr endurance [--mb N]
//! inline-dr info
//! ```

use inline_dr::gpu_sim::GpuSpec;
use inline_dr::obs::{ObsHandle, Tracer};
use inline_dr::reduction::{
    calibrate, compare_endurance, IntegrationMode, Pipeline, PipelineConfig,
};
use inline_dr::ssd_sim::SsdSpec;
use inline_dr::workload::{StreamConfig, StreamGenerator};
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            // Boolean flags take no value.
            if key == "verify" || key == "metrics" {
                flags.push((key.to_owned(), "true".to_owned()));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            flags.push((key.to_owned(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: '{v}' is not a number")),
        }
    }
}

fn parse_mode(s: &str) -> Result<IntegrationMode, String> {
    // Short aliases on top of the canonical `FromStr` names.
    match s {
        "cpu" => Ok(IntegrationMode::CpuOnly),
        "gpu-comp" => Ok(IntegrationMode::GpuForCompression),
        other => other.parse(),
    }
}

fn parse_gpu(s: &str) -> Result<GpuSpec, String> {
    match s {
        "hd7970" => Ok(GpuSpec::radeon_hd_7970()),
        "igpu" => Ok(GpuSpec::weak_igpu()),
        "dgpu" => Ok(GpuSpec::strong_dgpu()),
        other => Err(format!("unknown gpu '{other}' (hd7970 | igpu | dgpu)")),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let mb = args.get_f64("mb", 16.0)?;
    let dedup = args.get_f64("dedup", 2.0)?;
    let comp = args.get_f64("comp", 2.0)?;
    let mode = parse_mode(args.get("mode").unwrap_or("gpu-compression"))?;
    let gpu_spec = parse_gpu(args.get("gpu").unwrap_or("hd7970"))?;
    let verify = args.get("verify").is_some();
    let trace_path = args.get("trace").map(std::path::PathBuf::from);
    let tracer = if trace_path.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let obs = if args.get("metrics").is_some() {
        ObsHandle::enabled("cli/run")
    } else {
        ObsHandle::disabled()
    }
    .with_tracer(tracer.clone());

    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: (mb * (1 << 20) as f64) as u64,
        dedup_ratio: dedup,
        compression_ratio: comp,
        ..StreamConfig::default()
    });
    let mut pipeline = Pipeline::new(PipelineConfig {
        mode,
        gpu_spec,
        verify,
        ssd_spec: SsdSpec::samsung_830_sweep(),
        obs: obs.clone(),
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&generator.generate());
    println!("{report}");
    if let Some(snap) = obs.snapshot() {
        print!("\n{snap}");
    }
    if let Some(path) = trace_path {
        let sink = tracer
            .sink()
            .expect("tracer is enabled when --trace is set");
        let events = sink.drain();
        let dropped = sink.dropped();
        std::fs::write(&path, inline_dr::obs::chrome_trace_json(&events, dropped))
            .map_err(|e| format!("--trace {}: {e}", path.display()))?;
        eprint!("{}", inline_dr::obs::profile(&events, dropped));
        eprintln!(
            "trace: {} events -> {} (open in chrome://tracing or ui.perfetto.dev)",
            events.len(),
            path.display()
        );
    }
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let gpu_spec = parse_gpu(args.get("gpu").unwrap_or("hd7970"))?;
    let config = PipelineConfig {
        gpu_spec,
        ssd_spec: SsdSpec::samsung_830_sweep(),
        ..PipelineConfig::default()
    };
    let outcome = calibrate(&config, 256);
    print!("{outcome}");
    Ok(())
}

fn cmd_endurance(args: &Args) -> Result<(), String> {
    let mb = args.get_f64("mb", 8.0)?;
    let blocks: Vec<Vec<u8>> = StreamGenerator::new(StreamConfig {
        total_bytes: (mb * (1 << 20) as f64) as u64,
        ..StreamConfig::default()
    })
    .blocks()
    .collect();
    let spec = SsdSpec {
        blocks_per_die: 1024,
        ..SsdSpec::samsung_830_256g()
    };
    let cmp = compare_endurance(&blocks, &spec, &ObsHandle::disabled());
    println!(
        "NAND page programs  inline: {}  none: {}  background: {}",
        cmp.inline_nand_writes, cmp.none_nand_writes, cmp.background_nand_writes
    );
    println!(
        "background reduction causes {:.2}x the wear of inline reduction",
        cmp.background_penalty()
    );
    Ok(())
}

fn cmd_info() {
    println!("inline-dr {}", env!("CARGO_PKG_VERSION"));
    println!("reproduction of Ma & Park, \"Parallelizing Inline Data Reduction");
    println!("Operations for Primary Storage Systems\", PaCT 2017");
    println!();
    for spec in [
        GpuSpec::radeon_hd_7970(),
        GpuSpec::weak_igpu(),
        GpuSpec::strong_dgpu(),
    ] {
        println!(
            "gpu profile: {:<16} {} CUs x {} lanes @ {:.0} MHz, launch {}",
            spec.name,
            spec.compute_units,
            spec.simd_width,
            spec.clock_hz / 1e6,
            spec.launch_latency,
        );
    }
    let ssd = SsdSpec::samsung_830_256g();
    println!(
        "ssd profile: {:<16} {} dies, {} logical pages, t_prog {}",
        ssd.name,
        ssd.total_dies(),
        ssd.logical_pages(),
        ssd.t_prog,
    );
}

fn usage() -> &'static str {
    "usage: inline-dr <command> [flags]\n\
     \n\
     commands:\n\
       run        run a synthetic stream through the pipeline\n\
                  [--mb N] [--dedup R] [--comp R] [--mode M] [--gpu G] [--verify] [--metrics]\n\
                  [--trace FILE]  (Chrome trace JSON + profile on stderr)\n\
       check      model-based differential checker  (check run | check replay <file>)\n\
       calibrate  probe all integration modes with dummy I/O  [--gpu G]\n\
       endurance  compare inline / background / no reduction  [--mb N]\n\
       info       print the calibrated device profiles\n\
     \n\
     modes: cpu-only | gpu-dedup | gpu-compression | gpu-both\n\
     gpus:  hd7970 | igpu | dgpu"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `check` owns its own grammar (nested subcommands, a positional
    // artifact path) — hand off before the flag parser rejects it.
    if command == "check" {
        return dr_check::cli(&argv[1..]);
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "calibrate" => cmd_calibrate(&args),
        "endurance" => cmd_endurance(&args),
        "info" => {
            cmd_info();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
