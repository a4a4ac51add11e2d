"""Documentation consistency: docs reference things that actually exist."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_required_top_level_files_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
        assert (ROOT / name).is_file(), name


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.findall(r"examples/(\w+\.py)", text):
        assert (ROOT / "examples" / match).is_file(), match


def test_readme_bench_files_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.findall(r"bench_\w+\.py", text):
        assert (ROOT / "benchmarks" / match).is_file(), match


def test_every_bench_has_a_readme_or_design_mention():
    design = (ROOT / "DESIGN.md").read_text() + (ROOT / "README.md").read_text()
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        base = bench.name
        # ablation benches are described collectively
        if "ablation" in base:
            continue
        assert base in design, f"{base} not documented"


def test_examples_all_importable_without_running():
    """Each example compiles (syntax + top-level imports resolvable)."""
    import ast

    for example in (ROOT / "examples").glob("*.py"):
        tree = ast.parse(example.read_text())
        # has a main() function and a __main__ guard
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "main" in names, example.name


def test_design_mentions_every_subpackage():
    design = (ROOT / "DESIGN.md").read_text()
    src = ROOT / "src" / "repro"
    for pkg in src.iterdir():
        if pkg.is_dir() and (pkg / "__init__.py").exists():
            assert f"repro.{pkg.name}" in design or pkg.name in design, pkg.name


def test_experiments_covers_all_tables_and_figures():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table I", "Table II", "Fig. 2", "Fig. 3", "Fig. 5", "Fig. 6"):
        assert artifact in text, artifact


def test_paper_mapping_references_real_test_files():
    mapping = (ROOT / "docs" / "paper_mapping.md").read_text()
    for match in set(re.findall(r"test_\w+\.py", mapping)):
        assert (ROOT / "tests" / match).is_file(), match


def test_documented_env_vars_are_read_by_code():
    """Every ``REPRO_*`` variable the docs mention is read by some code.

    Code reads an env var through its name as a string literal (an
    ``*_ENV`` constant or an ``os.environ`` key), so a documented name
    with no quoted occurrence under ``src/`` or ``benchmarks/`` is a
    leftover from a removed knob.
    """
    docs = [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    mentioned = set()
    for doc in docs:
        mentioned |= set(re.findall(r"\bREPRO_[A-Z_]+\b", doc.read_text()))
    code = "".join(
        path.read_text()
        for tree in ("src", "benchmarks")
        for path in sorted((ROOT / tree).rglob("*.py"))
    )
    assert mentioned, "no REPRO_* variables documented at all?"
    unread = sorted(
        name for name in mentioned
        if not re.search(rf"[\"']{name}[\"']", code)
    )
    assert not unread, f"documented but never read: {unread}"
