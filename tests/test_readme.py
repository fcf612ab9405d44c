"""The README runs as written, and its tables say what the code says.

The python blocks and the shell example's ``alphareg`` commands are run.
The drift tests read each table and check it against the code: the exit
code of every error class, the default and option of every setting and
generator parameter, and the top-level blocks of the result document.
"""

import argparse
import inspect
import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from alphareg import cli, exceptions
from alphareg.datasets import (DatasetSpec, dataset_record, generate_synthetic, load_dataset,
                               synthesize)
from alphareg.optim import LmOptions
from alphareg.run import RunConfig, read_model, run_fit
from alphareg.selection import CvGrid

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def code_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", TEXT, flags=re.DOTALL)


def table(heading):
    """The rows of the first table after the line ``heading``, keyed by their
    first cell, each a list of cells with an enclosing pair of backticks
    stripped."""
    lines = TEXT.split("\n")
    start = lines.index(heading)
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("|"))
    end = next((i for i in range(first, len(lines)) if not lines[i].startswith("|")), len(lines))
    rows = {}
    for line in lines[first + 2:end]:  # past the header and its rule
        cells = [re.sub(r"^`([^`]*)`$", r"\1", c.strip()) for c in line.strip("|").split("|")]
        rows[cells[0]] = cells
    return rows


def subcommand_options(name):
    """The options of subcommand ``name``, by dest."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings for a in sub.choices[name]._actions}


def test_quick_start_runs():
    blocks = code_blocks("python")
    assert blocks, "no python block in the README"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_shell_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for block in code_blocks("sh")
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in (shlex.split(line, comments=True) for line in lines)
                if words[:1] == ["alphareg"]]
    assert [argv[0] for argv in commands] == ["generate", "fit", "cv", "margins", "predict"]
    for argv in commands:
        assert cli.main(argv) == 0, f"alphareg {shlex.join(argv)}"


# -- exit codes ----------------------------------------------------------------

EXIT_CODES = table("### Exit codes")
ERROR_CLASSES = {name: cls for name, cls in vars(exceptions).items()
                 if isinstance(cls, type) and issubclass(cls, exceptions.AlphaRegError)}


def test_exit_code_table_has_a_row_per_error_class():
    assert set(EXIT_CODES) == set(ERROR_CLASSES) | {"usage error"}
    for name, cls in ERROR_CLASSES.items():
        base = cls.__bases__[0]
        assert EXIT_CODES[name][1] == ("—" if base is Exception else base.__name__), name


@pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
def test_error_class_exits_with_its_tabled_code(name, monkeypatch, capsys):
    def handler(args):
        raise ERROR_CLASSES[name]("raised by the test")
    monkeypatch.setattr(cli, "_cmd_generate", handler)
    argv = ["generate", "--n", "10", "--components", "2", "--covariates", "1"]
    assert cli.main(argv) == int(EXIT_CODES[name][2])
    assert "raised by the test" in capsys.readouterr().err


def test_usage_error_exits_with_its_tabled_code(capsys):
    argv = ["cv", "--data", "absent.csv", "--composition-cols", "y1,y2",
            "--covariate-cols", "x1", "--with-se"]
    assert cli.main(argv) == int(EXIT_CODES["usage error"][2])
    assert "unrecognized arguments: --with-se" in capsys.readouterr().err


# -- settings ------------------------------------------------------------------

SETTINGS = table("### Settings")
SETTING_FIELDS = {f"{cls.__name__}.{f.name}": f for cls in (RunConfig, CvGrid, LmOptions)
                  for f in fields(cls)}


def test_settings_table_has_a_row_per_field():
    assert set(SETTINGS) == set(SETTING_FIELDS)


@pytest.mark.parametrize("key", sorted(SETTING_FIELDS))
def test_setting_row_gives_the_fields_default_and_option(key):
    field = SETTING_FIELDS[key]
    _, option, default, _, error = SETTINGS[key]
    expected = field.default if field.default is not MISSING else field.default_factory()
    assert eval(default, {"CvGrid": CvGrid, "LmOptions": LmOptions}) == expected
    options = subcommand_options("fit")
    assert option == (" ".join(options[field.name]) if field.name in options else "—")
    assert issubclass(ERROR_CLASSES[error], exceptions.DataError)


# -- result document -------------------------------------------------------------

BLOCKS = table("### Result document")


@pytest.fixture(scope="module")
def fit_documents(tmp_path_factory):
    """``fit``'s documents, run_fit's plus the dataset block, of a plain model
    with sandwich and with bootstrap SEs, an slx model and a gwar search."""
    data, _ = generate_synthetic(out_dir=tmp_path_factory.mktemp("ds"), n=40, D=3, p=2,
                                 noise_scale=0.05, spatial_mode="slx", seed=3)
    spec = DatasetSpec(path=data, composition_columns=["y1", "y2", "y3"],
                       covariate_columns=["x1", "x2"], lat_column="lat", lon_column="lon")
    configs = (RunConfig(alpha=0.5, with_se=True),
               RunConfig(alpha=0.5, bootstrap_replicates=5),
               RunConfig(model="slx", alpha=0.5, k=3),
               RunConfig(model="gwar", alpha=0.5, grid=CvGrid(hs=(0.05, 0.1))))
    return [run_fit(config, *load_dataset(spec), covariate_names=spec.covariate_columns)[0]
            | {"dataset": dataset_record(spec)} for config in configs]


def test_document_table_has_a_row_per_block(fit_documents):
    assert set(BLOCKS) == {key for doc in fit_documents for key in doc}
    assert {name: row[2] for name, row in BLOCKS.items()} == (
        dict.fromkeys(BLOCKS, "run_fit") | {"dataset": "dataset_record"})


def test_read_model_reads_the_blocks_the_table_names(fit_documents):
    for doc in fit_documents:
        needed = set()
        for block in doc:
            try:
                read_model({key: value for key, value in doc.items() if key != block})
            except KeyError:
                needed.add(block)
        assert needed == {name for name, row in BLOCKS.items()
                          if "read_model" in row[3]}


# -- generate ------------------------------------------------------------------

GENERATE = {row[1]: row for row in table("### `generate`").values()}
GENERATOR_PARAMETERS = inspect.signature(synthesize).parameters | {
    "out_dir": inspect.signature(generate_synthetic).parameters["out_dir"]}


def test_generate_table_has_a_row_per_parameter():
    assert set(GENERATE) == set(GENERATOR_PARAMETERS)


@pytest.mark.parametrize("name", sorted(GENERATOR_PARAMETERS))
def test_generate_row_gives_the_parameters_default_and_option(name):
    option, _, default, _ = GENERATE[name]
    parameter = GENERATOR_PARAMETERS[name]
    if parameter.default is inspect.Parameter.empty:
        assert default == "required"
    else:
        assert eval(default, {}) == parameter.default
    assert [option] == subcommand_options("generate")[name]
