#!/usr/bin/env python3
"""Folds the results/*.txt experiment outputs into EXPERIMENTS.md.

Replaces everything after the `<!-- RESULTS -->` marker with fenced blocks
of each result file, prefixed by its regenerating command.
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ORDER = [
    ("fig4_static_3d", "Figure 4 (3D static quality + 3D win rates)"),
    ("fig5_static_8d", "Figure 5 (8D static quality + 8D win rates)"),
    ("table1_winrates", "Table 1 (pooled win rates)"),
    ("fig6_model_size", "Figure 6 (error vs model size)"),
    ("fig7_performance", "Figure 7 (overhead vs model size)"),
    ("fig8_dynamic", "Figure 8 (changing data)"),
    ("ablation_log_updates", "§5.5 ablation (log vs linear updates)"),
    ("ablation_params", "Parameter sweep"),
    ("baselines_extra", "Extended baselines (AVI, sampling)"),
]

def main() -> int:
    exp = ROOT / "EXPERIMENTS.md"
    text = exp.read_text()
    marker = "<!-- RESULTS -->"
    if marker not in text:
        print("marker missing in EXPERIMENTS.md", file=sys.stderr)
        return 1
    head = text.split(marker)[0] + marker + "\n"
    chunks = []
    for name, title in ORDER:
        path = ROOT / "results" / f"{name}.txt"
        if not path.exists():
            chunks.append(f"\n### {title}\n\n*(not recorded in this run — "
                          f"regenerate with `cargo run --release --bin {name}`)*\n")
            continue
        body = path.read_text().rstrip()
        chunks.append(f"\n### {title}\n\n```\n{body}\n```\n")
    exp.write_text(head + "".join(chunks))
    print("EXPERIMENTS.md updated with", sum((ROOT / 'results' / f'{n}.txt').exists() for n, _ in ORDER), "result files")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
