import errno
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jointvec import cli, synth
from jointvec.cli import _TRAIN, load_config_file, main
from jointvec.corpus import iter_document_token_sentences, iter_token_sentences
from jointvec.embeddings import Vocabulary, export_table, import_table
from jointvec.errors import UserError
from jointvec.native import platform_facts
from jointvec.training import load_model, resume

from conftest import HOSTILE_CHECKPOINTS, damage_checkpoint

CHECKPOINT_FILES = ("la.npy", "lb.npy", "la.adagrad.npy", "lb.adagrad.npy", "la.vocab", "lb.vocab")


@pytest.fixture(scope="module")
def fast_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    tw = synth.make_twin_corpus("la", "lb", 40, seed=1)
    synth.write_parallel_files(tw, root / "la.txt", root / "lb.txt")
    synth.write_document_file(
        synth.make_topic_documents("la", 16, seed=11, sentences_per_doc=2), root / "la.docs"
    )
    synth.write_document_file(
        synth.make_topic_documents("lb", 16, seed=22, sentences_per_doc=2), root / "lb.docs"
    )
    return root


def run_cli(argv, capsys):
    try:
        rc = main([str(a) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def train_args(data, out, extra=()):
    return [
        "train",
        "--pair", f"la:lb:{data / 'la.txt'}:{data / 'lb.txt'}",
        "--dim", 8, "--noise", 3, "--batch", 10, "--epochs", 2, "--seed", 1,
        "--out", out,
        *extra,
    ]


@pytest.fixture(scope="module")
def trained(fast_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main([str(a) for a in train_args(fast_corpus, out)])
    assert rc == 0
    return out


def test_train_writes_checkpoint_and_logs(fast_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, err = run_cli(train_args(fast_corpus, out), capsys)
    assert rc == 0
    assert "checkpoint" in err
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.txt", "meta.txt", "loss_log.tsv", *CHECKPOINT_FILES]
    )
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert manifest[0] == "subcommand=train"
    assert "dim=8" in manifest
    assert "margin=8.0" in manifest  # default m = d materialized
    assert "cvm=add" in manifest
    log = (out / "loss_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch\tloss\tactive_fraction"
    assert len(log) == 3
    meta = (out / "meta.txt").read_text(encoding="utf-8")
    assert "epoch=2\n" in meta and "d=8\n" in meta


def test_manifest_and_meta_record_the_platform_facts(trained, tmp_path):
    """numpy's version, its CPU dispatch targets and the OpenBLAS kernel, which the bits follow.

    The lines follow the subcommand in manifest.txt and sit among the
    sorted keys of meta.txt. Neither reading a manifest as a config file nor
    loading a checkpoint uses them, so a meta.txt written before them loads.
    """
    facts = [f"{key}={value}" for key, value in platform_facts()]
    assert [fact.split("=")[0] for fact in facts] == ["numpy", "cpu_dispatch", "openblas_core"]
    assert facts[0] == f"numpy={np.__version__}" and all(fact.split("=")[1] for fact in facts)
    manifest = (trained / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert manifest[1:4] == facts
    assert set(load_config_file(trained / "manifest.txt", _TRAIN)[0]).isdisjoint(
        dict(platform_facts()))
    meta = (trained / "meta.txt").read_text(encoding="utf-8").splitlines()
    assert set(facts) <= set(meta)
    old = tmp_path / "old"
    shutil.copytree(trained, old)
    (old / "meta.txt").write_text("".join(f"{line}\n" for line in meta if line not in facts),
                                  encoding="utf-8")
    (bundle, config, epoch), (want, want_config, want_epoch) = load_model(old), load_model(trained)
    assert (config, epoch) == (want_config, want_epoch)
    for lang in want.languages:
        assert np.array_equal(bundle.table(lang).matrix, want.table(lang).matrix)


def test_train_rejects_bad_margin(fast_corpus, tmp_path, capsys):
    rc, _, err = run_cli(
        train_args(fast_corpus, tmp_path / "x", extra=["--margin", 0]), capsys
    )
    assert rc == 1
    assert "error" in err


def test_train_refuses_out_that_is_a_file(fast_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    out.write_text("old", encoding="utf-8")
    rc, _, err = run_cli(train_args(fast_corpus, out), capsys)
    assert rc == 1 and "not a directory" in err
    assert out.read_text(encoding="utf-8") == "old"


def test_pair_count_sets_training_mode(fast_corpus, tmp_path, capsys):
    """One --pair trains in single mode, more than one jointly; no flag selects it."""
    second = ["--pair", f"la:lc:{fast_corpus / 'la.txt'}:{fast_corpus / 'lb.txt'}"]
    for extra, mode in (([], "single"), (second, "joint")):
        out = tmp_path / mode
        rc, _, err = run_cli(train_args(fast_corpus, out, extra=extra), capsys)
        assert rc == 0, err
        assert f"mode={mode}\n" in (out / "meta.txt").read_text(encoding="utf-8")
        assert "mode=" not in (out / "manifest.txt").read_text(encoding="utf-8")


def test_train_bad_pair_spec(fast_corpus, tmp_path, capsys):
    rc, _, err = run_cli(
        ["train", "--pair", "la:lb:only_one_file", "--out", tmp_path / "x"], capsys
    )
    assert rc == 1 and "--pair" in err


@pytest.mark.parametrize("lang", ["a,b", " la", "../evil", "."])
def test_train_refuses_a_language_code_a_checkpoint_cannot_store(fast_corpus, tmp_path, lang,
                                                                    capsys):
    """A comma, a space, a path or a dot in a code fails before any work, writing nothing."""
    sub = tmp_path / "sub"
    sub.mkdir()
    argv = ["train", "--pair", f"{lang}:lb:{fast_corpus / 'la.txt'}:{fast_corpus / 'lb.txt'}",
            "--dim", 8, "--epochs", 1, "--out", sub / "md"]
    rc, stdout, err = run_cli(argv, capsys)
    assert rc == 1 and "--pair" in err and f"language code {lang!r}" in err
    assert "Traceback" not in err and stdout == ""
    assert os.listdir(sub) == []


def test_train_refuses_a_second_pivot_before_reading_a_file(tmp_path, capsys):
    """Every --pair must start with the first --pair's code; a mismatch fails before any read."""
    out = tmp_path / "run"
    argv = ["train", "--pair", "la:lb:missing_a:missing_b", "--pair", "lb:la:x:y",
            "--dim", 8, "--epochs", 1, "--out", out]
    rc, stdout, err = run_cli(argv, capsys)
    assert rc == 1, err
    assert "--pair 'lb:la:x:y'" in err and "pivot 'la'" in err
    assert "cannot read" not in err and "Traceback" not in err and stdout == ""
    assert not out.exists()


def test_train_requires_pair_and_out(capsys):
    rc, _, err = run_cli(["train", "--dim", 8], capsys)
    assert rc == 1
    assert "--pair" in err


def test_eval_cldc_prints_headline(fast_corpus, trained, tmp_path, capsys):
    out = tmp_path / "eval"
    rc, stdout, _ = run_cli(
        [
            "eval", "cldc",
            "--model", trained,
            "--train", f"la:{fast_corpus / 'la.docs'}",
            "--test", f"lb:{fast_corpus / 'lb.docs'}",
            "--seed", 0,
            "--out", out,
        ],
        capsys,
    )
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == "train_lang\ttest_lang\tmetric\tvalue\tsupport"
    assert len(lines) == 2
    fields = lines[1].split("\t")
    assert fields[:3] == ["la", "lb", "accuracy"]
    assert 0.0 <= float(fields[3]) <= 1.0
    assert (out / "report.tsv").read_text(encoding="utf-8") == stdout
    all_rows = (out / "report_all.tsv").read_text(encoding="utf-8").splitlines()
    assert len(all_rows) == 3  # accuracy + majority_baseline
    assert (out / "manifest.txt").read_text(encoding="utf-8").startswith("subcommand=eval cldc\n")


def test_eval_cldc_missing_model(fast_corpus, tmp_path, capsys):
    rc, _, err = run_cli(
        [
            "eval", "cldc",
            "--model", tmp_path / "nope",
            "--train", f"la:{fast_corpus / 'la.docs'}",
            "--test", f"lb:{fast_corpus / 'lb.docs'}",
        ],
        capsys,
    )
    assert rc == 1 and "error" in err


def test_eval_transfer_rows(fast_corpus, trained, capsys):
    rc, stdout, _ = run_cli(
        [
            "eval", "transfer",
            "--model", trained,
            "--docs", f"la:{fast_corpus / 'la.docs'}",
            "--docs", f"lb:{fast_corpus / 'lb.docs'}",
        ],
        capsys,
    )
    assert rc == 0
    lines = stdout.splitlines()
    assert len(lines) == 3  # header + both ordered pairs
    pairs = {tuple(line.split("\t")[:2]) for line in lines[1:]}
    assert pairs == {("la", "lb"), ("lb", "la")}


def test_eval_transfer_repeated_language_is_user_error(fast_corpus, trained, capsys):
    rc, stdout, err = run_cli(
        [
            "eval", "transfer",
            "--model", trained,
            "--docs", f"la:{fast_corpus / 'la.docs'}",
            "--docs", f"la:{fast_corpus / 'la.docs'}",
        ],
        capsys,
    )
    assert rc == 1 and "'la'" in err and "Traceback" not in err
    assert stdout == ""


def test_eval_transfer_requires_two_languages(fast_corpus, trained, capsys):
    rc, stdout, err = run_cli(
        [
            "eval", "transfer",
            "--model", trained,
            "--docs", f"la:{fast_corpus / 'la.docs'}",
        ],
        capsys,
    )
    assert rc == 1 and "--docs" in err and "at least 2" in err
    assert "Traceback" not in err and stdout == ""


@pytest.mark.parametrize("content", ["", "d1\tla\tl\tnowhere in vocabulary\n"],
                         ids=["empty", "out_of_vocabulary"])
@pytest.mark.parametrize("command", ["cldc", "transfer"])
def test_eval_document_file_without_known_tokens_names_file(fast_corpus, trained, tmp_path,
                                                            command, content, capsys):
    bad = tmp_path / "la.docs"
    bad.write_text(content, encoding="utf-8")
    lb_docs = fast_corpus / "lb.docs"
    argv = {
        "cldc": ["--train", f"la:{bad}", "--test", f"lb:{lb_docs}"],
        "transfer": ["--docs", f"la:{bad}", "--docs", f"lb:{lb_docs}"],
    }[command]
    rc, _, err = run_cli(["eval", command, "--model", trained, *argv], capsys)
    assert rc == 1 and str(bad) in err


def _relabel(src, dst, label_field):
    """A copy of the document file `src` whose every document has `label_field` as labels."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = [line.split("\t") for line in lines]
    dst.write_text("".join("\t".join([*f[:2], label_field, *f[3:]]) for f in fields),
                   encoding="utf-8")
    return dst


@pytest.mark.parametrize(
    "label_field, task, message",
    [("only", "auto", "training documents in 'la' carry the one label 'only'"),
     ("", "multi", "training documents in 'la' carry no labels"),
     ("", "single", "document 'la-doc0000' in 'la' has no label")],
    ids=["one_label", "no_labels", "single_no_label"],
)
def test_eval_training_labels_error_names_language(fast_corpus, trained, tmp_path, label_field,
                                                   task, message, capsys):
    train = _relabel(fast_corpus / "la.docs", tmp_path / "la.docs", label_field)
    rc, stdout, err = run_cli(
        ["eval", "cldc", "--model", trained, "--train", f"la:{train}",
         "--test", f"lb:{fast_corpus / 'lb.docs'}", "--task", task],
        capsys,
    )
    assert rc == 1 and message in err and "Traceback" not in err
    assert stdout == ""


@pytest.mark.parametrize("command", ["train", "eval cldc", "eval transfer", "query", "export"])
def test_out_that_is_a_file_is_user_error_before_any_work(fast_corpus, trained, la_token,
                                                          tmp_path, command, capsys):
    out = tmp_path / "taken"
    out.write_text("old", encoding="utf-8")
    la_docs, lb_docs = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    argv = {
        "train": train_args(fast_corpus, out)[:-2],  # without its --out
        "eval cldc": ["eval", "cldc", "--model", trained, "--train", la_docs, "--test", lb_docs],
        "eval transfer": ["eval", "transfer", "--model", trained, "--docs", la_docs,
                          "--docs", lb_docs],
        "query": ["query", "--model", trained, "--word", f"la:{la_token}"],
        "export": ["export", "--model", trained],
    }[command]
    rc, stdout, err = run_cli([*argv, "--out", out], capsys)
    assert rc == 1 and f"{out} exists and is not a directory" in err
    assert "Traceback" not in err and stdout == ""
    assert out.read_text(encoding="utf-8") == "old"
    under = out / "sub"  # cannot be created, so no run may end by trying
    rc, stdout, err = run_cli([*argv, "--out", under], capsys)
    assert rc == 1 and f"--out {under} cannot be created: Not a directory" in err
    assert "Traceback" not in err and stdout == ""
    assert out.read_text(encoding="utf-8") == "old"
    used = tmp_path / "used"  # say, a training run's directory
    used.mkdir()
    (used / "manifest.txt").write_text("old", encoding="utf-8")
    rc, stdout, err = run_cli([*argv, "--out", used], capsys)
    assert rc == 1 and f"{used} exists and is not empty" in err
    assert "Traceback" not in err and stdout == ""
    assert [p.name for p in used.iterdir()] == ["manifest.txt"]
    assert (used / "manifest.txt").read_text(encoding="utf-8") == "old"
    rc, stdout, err = run_cli([*argv, "--out", ""], capsys)
    assert rc == 1 and "--out is empty" in err
    assert "Traceback" not in err and stdout == ""


# (command, the call that fails, the file it was writing): each writer of each
# subcommand, the checkpoint's first and last files among them
WRITE_FAULTS = [
    ("train", "np.save", "la.npy"),
    ("train", "os.replace", "la.vocab"),
    ("train", "os.replace", "lb.adagrad.npy"),
    ("train", "os.replace", "meta.txt"),
    ("train", "os.replace", "manifest.txt"),
    ("train", "os.replace", "loss_log.tsv"),
    ("eval cldc", "os.replace", "report_all.tsv"),
    ("query", "os.replace", "neighbors.tsv"),
    ("export", "os.replace", "lb.emb"),
]


@pytest.mark.parametrize("command, call, name", WRITE_FAULTS)
def test_full_disk_is_user_error_naming_the_file(fast_corpus, trained, la_token, tmp_path,
                                                 monkeypatch, command, call, name, capsys):
    """A write that fails with ENOSPC ends in exit 1 naming the file and leaves no .tmp file.

    A checkpoint cut short has no meta.txt, so resume() refuses it.
    """
    out = tmp_path / "out"
    la_docs, lb_docs = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    argv = {
        "train": train_args(fast_corpus, out)[:-2],  # without its --out
        "eval cldc": ["eval", "cldc", "--model", trained, "--train", la_docs, "--test", lb_docs],
        "query": ["query", "--model", trained, "--word", f"la:{la_token}"],
        "export": ["export", "--model", trained, "--lang", "lb"],
    }[command]
    target = out / name
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    if call == "np.save":
        save = np.save

        def failing(fh, *args, **kwargs):
            if fh.name == f"{target}.tmp":
                raise full
            return save(fh, *args, **kwargs)

        monkeypatch.setattr(np, "save", failing)
    else:
        replace = os.replace

        def failing(src, dst):
            if str(dst) == str(target):
                raise full
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
    rc, _, err = run_cli([*argv, "--out", out], capsys)
    monkeypatch.undo()
    assert rc == 1, err
    assert f"cannot write {target}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}" in err
    assert "Traceback" not in err
    assert not target.exists() and not list(out.glob("*.tmp"))
    assert not out.exists()
    if name in (*CHECKPOINT_FILES, "meta.txt", "manifest.txt") and command == "train":
        with pytest.raises(UserError, match=re.escape(str(out / "meta.txt"))):
            resume(out)


def test_interrupted_write_removes_what_the_run_made(trained, tmp_path, monkeypatch):
    """An interrupt after the first export file removes the directories the run created,
    and empties an --out that was an empty directory without removing it."""
    export = cli.export_table

    def interrupted(*args):
        export(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "export_table", interrupted)
    given = tmp_path / "given"
    given.mkdir()
    for out in (tmp_path / "made" / "deeper" / "ex", given):
        assert main(["export", "--model", str(trained), "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == ["given"] and os.listdir(given) == []


LONG_NAME = "x" * 300  # longer than a file name may be on common file systems


def _tree(root) -> list:
    return [(path, sorted(dirs), sorted(files)) for path, dirs, files in sorted(os.walk(root))]


@given(st.lists(st.sampled_from(["new", "deep", LONG_NAME, "file", "empty", "full"]),
                min_size=1, max_size=4))
@example(["new", LONG_NAME, "leaf"])
@example(["new", "..", "file", "leaf"])  # makedirs makes new before it fails
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_out_either_succeeds_or_leaves_the_tree_as_it_was(trained, tmp_path, capsys, parts):
    """Each --out is made and filled, or refused naming it, with no directory left behind.

    Each example runs in a fresh directory holding a regular file `file`,
    an empty directory `empty` and a directory `full` with a file `file` in it.
    """
    root = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(root, "file"), "w", encoding="utf-8") as fh:
        fh.write("old\n")
    os.mkdir(os.path.join(root, "empty"))
    os.mkdir(os.path.join(root, "full"))
    with open(os.path.join(root, "full", "file"), "w", encoding="utf-8") as fh:
        fh.write("old\n")
    before = _tree(root)
    out = os.path.join(root, *parts)
    rc, _, err = run_cli(["export", "--model", trained, "--out", out], capsys)
    assert "Traceback" not in err
    if rc == 0:
        assert sorted(os.listdir(out)) == ["la.emb", "lb.emb", "manifest.txt"]
    else:
        assert rc == 1 and out in err
        assert _tree(root) == before


def test_sigint_ends_in_exit_1_without_traceback(fast_corpus, tmp_path):
    """Ctrl-C during training ends in exit 1 with a one-line error and removes --out."""
    out = tmp_path / "run"
    argv = [str(a) for a in train_args(fast_corpus, out)]
    argv[argv.index("--epochs") + 1] = "1000000"
    proc = subprocess.Popen(  # a parent that is not interactive may ignore SIGINT
        [sys.executable, "-m", "jointvec.cli", *argv], stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert out.exists(), "the run never made its --out"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1, err
    assert "jointvec: error: interrupted" in err and "Traceback" not in err
    assert not out.exists()


def test_failed_run_keeps_what_others_put_beside_its_out(trained, tmp_path, monkeypatch):
    """A failed run removes its own --out and the new parents left empty, but not a file
    another run or the user put under a parent it made."""
    export = cli.export_table
    runs = tmp_path / "runs"
    sibling = runs / "other" / "finished.txt"

    def failing(*args):
        export(*args)
        sibling.parent.mkdir()
        sibling.write_text("kept\n", encoding="utf-8")
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "export_table", failing)
    assert main(["export", "--model", str(trained), "--out", str(runs / "deeper" / "ex")]) == 2
    assert os.listdir(tmp_path) == ["runs"] and os.listdir(runs) == ["other"]
    assert sibling.read_text(encoding="utf-8") == "kept\n"


def _vocab_tokens(path):
    """The tokens of a checkpoint's .vocab file, in row order."""
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "files, pairs, dropped",
    [
        (
            {
                "en_de.en": "The cat sleeps\nonly here\nA dog runs\nthe dog\n",
                "en_de.de": "die Katze schläft\n\nein Hund läuft\nder Hund\n",
                "en_fr.en": "a bird sings\nalso alone too\nthe cat\n",
                "en_fr.fr": "un oiseau chante\n\nle chat\n",
            },
            ["en:de:en_de.en:en_de.de", "en:fr:en_fr.en:en_fr.fr"],
            ("en", {"only", "here", "also", "alone", "too"}),
        ),
        (
            {"a.la": "x y\nz y\n\nw\n", "b.la": "q x\nr\nv v\ns\n"},
            ["la:la:a.la:b.la"],
            ("la", {"v"}),
        ),
    ],
    ids=["joint_blank_targets", "same_language"],
)
def test_train_ids_are_first_sight_over_each_languages_files(tmp_path, files, pairs, dropped,
                                                             capsys):
    """Each language's rows follow first sight over its files in --pair order, dropped lines too."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    specs = [p.split(":") for p in pairs]
    argv = ["train", "--dim", 4, "--noise", 1, "--batch", 2, "--epochs", 1, "--seed", 1,
            "--out", tmp_path / "run"]
    for l1, l2, f1, f2 in specs:
        argv += ["--pair", f"{l1}:{l2}:{tmp_path / f1}:{tmp_path / f2}"]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 0, err
    paths = {}
    for l1, l2, f1, f2 in specs:
        paths.setdefault(l1, []).append(tmp_path / f1)
        paths.setdefault(l2, []).append(tmp_path / f2)
    for lang, lang_paths in paths.items():
        sentences = chain.from_iterable(map(iter_token_sentences, lang_paths))
        expected = Vocabulary(t for s in sentences for t in s)
        assert _vocab_tokens(tmp_path / "run" / f"{lang}.vocab") == expected.tokens
    lang, tokens = dropped  # tokens only on lines whose counterpart is blank
    assert tokens <= set(_vocab_tokens(tmp_path / "run" / f"{lang}.vocab"))


@pytest.fixture(scope="module")
def la_token(trained):
    bundle, _, _, _ = resume(trained)
    return bundle.vocab("la").tokens[0]


def test_query_outputs_ranked_rows(trained, la_token, capsys):
    token = la_token
    rc, stdout, _ = run_cli(
        ["query", "--model", trained, "--word", f"la:{token}", "--n", 3], capsys
    )
    assert rc == 0
    rows = [line.split("\t") for line in stdout.splitlines()]
    assert len(rows) == 3
    scores = [float(r[2]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(len(r) == 3 for r in rows)
    assert ("la", token) not in {(r[0], r[1]) for r in rows}


def test_query_target_language_filter(trained, la_token, tmp_path, capsys):
    out = tmp_path / "q"
    rc, stdout, _ = run_cli(
        [
            "query", "--model", trained, "--word", f"la:{la_token}",
            "--n", 4, "--target", "lb", "--metric", "euclidean", "--out", out,
        ],
        capsys,
    )
    assert rc == 0
    rows = stdout.splitlines()
    assert len(rows) == 4
    assert all(r.startswith("lb\t") for r in rows)
    assert (out / "neighbors.tsv").read_text(encoding="utf-8") == stdout
    assert (out / "manifest.txt").read_text(encoding="utf-8").startswith("subcommand=query\n")


def test_query_non_finite_checkpoint_is_user_error(trained, la_token, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(trained, model)
    table = np.load(model / "la.npy")
    table[1, 0] = np.nan
    np.save(model / "la.npy", table)
    rc, _, err = run_cli(["query", "--model", model, "--word", f"la:{la_token}"], capsys)
    assert rc == 1
    assert f"{model / 'la.npy'}: row 2" in err


def test_query_out_that_cannot_be_created_is_user_error(trained, la_token, tmp_path, capsys):
    """An --out name too long for the file system fails before any work, naming --out."""
    out = tmp_path / "sub" / ("x" * 300)
    rc, stdout, err = run_cli(["query", "--model", trained, "--word", f"la:{la_token}",
                               "--out", out], capsys)
    assert rc == 1, err
    assert f"--out {out} cannot be created: " in err and "Traceback" not in err
    assert stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("case", list(HOSTILE_CHECKPOINTS))
def test_query_damaged_checkpoint_is_user_error_naming_file(trained, la_token, tmp_path, case,
                                                            capsys):
    model = tmp_path / "model"
    shutil.copytree(trained, model)
    bad, read_only_sees, text = damage_checkpoint(model, case)
    rc, stdout, err = run_cli(["query", "--model", model, "--word", f"la:{la_token}"], capsys)
    if read_only_sees:
        assert rc == 1, err
        assert "Traceback" not in err and str(bad) in err and text in err
        assert stdout == ""
    else:  # query reads no accumulators
        assert rc == 0, err


def test_read_only_commands_skip_accumulators(fast_corpus, trained, la_token, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(trained, model)
    (model / "la.adagrad.npy").unlink()
    runs = [
        ["query", "--word", f"la:{la_token}", "--n", 3],
        ["eval", "cldc", "--train", f"la:{fast_corpus / 'la.docs'}",
         "--test", f"lb:{fast_corpus / 'lb.docs'}"],
    ]
    for argv in runs:
        rc, stdout, err = run_cli([*argv, "--model", model], capsys)
        assert rc == 0, err
        assert (rc, stdout) == run_cli([*argv, "--model", trained], capsys)[:2]
    rc, _, err = run_cli(["export", "--model", model, "--out", tmp_path / "exp"], capsys)
    assert rc == 0, err
    assert run_cli(["export", "--model", trained, "--out", tmp_path / "want"], capsys)[0] == 0
    for name in ("la.emb", "lb.emb"):
        assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    with pytest.raises(UserError, match=re.escape(str(model / "la.adagrad.npy"))):
        resume(model)


def test_query_unknown_word_fails(trained, la_token, capsys):
    rc, _, err = run_cli(
        ["query", "--model", trained, "--word", "la:nonexistent"], capsys
    )
    assert rc == 1 and "error" in err
    rc, _, err = run_cli(
        ["query", "--model", trained, "--word", f"la:{la_token}", "--n", 0], capsys
    )
    assert rc == 1 and "--n must be >= 1, got 0" in err
    for word in ("la: ", f"la:{la_token} {la_token}"):
        rc, stdout, err = run_cli(["query", "--model", trained, "--word", word], capsys)
        assert rc == 1 and "--word takes LANG:TOKEN with one token" in err and stdout == ""
    for word in ("la:", f":{la_token}", la_token):
        rc, stdout, err = run_cli(["query", "--model", trained, "--word", word], capsys)
        assert rc == 1 and f"--word takes LANG:TOKEN, got {word!r}" in err and stdout == ""


def test_query_word_missing_from_the_model_names_the_flag_and_language(trained, capsys):
    rc, stdout, err = run_cli(["query", "--model", trained, "--word", "la:ZZZ"], capsys)
    assert rc == 1 and stdout == ""
    assert "--word 'la:ZZZ': language 'la' has no token 'zzz'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["word", "target", "lang", "train", "test", "docs",
                                  "docs_beside_two"])
def test_unknown_language_names_its_flag_before_any_work(fast_corpus, trained, la_token, tmp_path,
                                                         case, monkeypatch, capsys):
    """A language the model lacks ends the run with exit 1, naming the flag that gave it and
    the model's languages, before a document is read or a neighbor scored."""
    la, lb = (f"{lang}:{fast_corpus / lang}.docs" for lang in ("la", "lb"))
    zz = f"zz:{tmp_path / 'zz.docs'}"  # never read
    argv, value = {
        "word": (["query", "--word", "zz:la007"], "zz:la007"),
        "target": (["query", "--word", f"la:{la_token}", "--target", "zz"], "zz"),
        "lang": (["export", "--lang", "la", "--lang", "zz"], "zz"),
        "train": (["eval", "cldc", "--train", zz, "--test", lb], zz),
        "test": (["eval", "cldc", "--train", la, "--test", zz], zz),
        "docs": (["eval", "transfer", "--docs", la, "--docs", zz], zz),
        "docs_beside_two": (["eval", "transfer", "--docs", la, "--docs", lb, "--docs", zz], zz),
    }[case]
    flag = case.split("_")[0]
    work = []
    monkeypatch.setattr(cli, "load_documents", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "nearest_neighbors", lambda *a: work.append(a))
    out = tmp_path / "out"
    rc, stdout, err = run_cli([*argv, "--model", trained, "--out", out], capsys)
    assert rc == 1 and stdout == "" and work == []
    assert f"--{flag} {value!r}: model has no language 'zz'; it has la, lb" in err
    assert "Traceback" not in err and not out.exists()


def test_query_word_is_case_folded_like_the_corpora(trained, la_token, capsys):
    lower = run_cli(["query", "--model", trained, "--word", f"la:{la_token}"], capsys)
    assert lower[0] == 0 and lower[1]
    upper = run_cli(["query", "--model", trained, "--word", f"la:{la_token.upper()}"], capsys)
    assert upper == lower


def test_export_all_and_selected(trained, tmp_path, capsys):
    out = tmp_path / "exp"
    rc, _, _ = run_cli(["export", "--model", trained, "--out", out], capsys)
    assert rc == 0
    bundle, _, _ = load_model(trained)
    for lang in ("la", "lb"):
        export_table(bundle.table(lang), bundle.vocab(lang), tmp_path / f"{lang}.emb")
        assert (out / f"{lang}.emb").read_bytes() == (tmp_path / f"{lang}.emb").read_bytes()
    vocab, table = import_table(out / "la.emb")
    assert vocab.tokens == _vocab_tokens(trained / "la.vocab")
    assert table.matrix.tobytes() == np.load(trained / "la.npy").tobytes()

    only = tmp_path / "only"
    rc, _, _ = run_cli(
        ["export", "--model", trained, "--lang", "la", "--out", only], capsys
    )
    assert rc == 0
    assert (only / "la.emb").is_file()
    assert not (only / "lb.emb").exists()

    rc, _, err = run_cli(["export", "--model", trained, "--out", out], capsys)
    assert rc == 1 and f"{out} exists and is not empty" in err
    rc, _, _ = run_cli(
        ["export", "--model", trained, "--lang", "zz", "--out", tmp_path / "zz"], capsys
    )
    assert rc == 1
    rc, _, err = run_cli(
        ["export", "--model", trained, "--lang", "lb", "--lang", "lb", "--out", tmp_path / "lb"],
        capsys,
    )
    assert rc == 1 and "--lang 'lb' is listed more than once" in err
    assert "Traceback" not in err and not (tmp_path / "lb").exists()


def test_config_file_supplies_flags(fast_corpus, trained, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# training settings\n"
        f"pair=la:lb:{fast_corpus / 'la.txt'}:{fast_corpus / 'lb.txt'}\n"
        "dim=8\nnoise=3\nbatch=10\nepochs=2\nseed=1\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    rc, _, _ = run_cli(["train", "--config", cfg, "--out", out], capsys)
    assert rc == 0
    for name in CHECKPOINT_FILES:
        assert (out / name).read_bytes() == (trained / name).read_bytes()


def test_explicit_flags_beat_config(fast_corpus, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("dim=4\n", encoding="utf-8")
    out = tmp_path / "run"
    args = train_args(fast_corpus, out) + ["--config", cfg]
    rc, _, _ = run_cli(args, capsys)
    assert rc == 0
    assert "d=8\n" in (out / "meta.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, line",
    [
        (["train"], "doc_signal=maybe"),
        (["train"], "dim=abc"),
        (["train"], "cvm=tri"),
        (["eval", "cldc"], "level=bogus"),
        (["query"], "metric=bogus"),
        (["train", "--pair", "la:lb:{data}/la.txt:{data}/lb.txt"], "dim=0"),
        (["train", "--pair", "la:lb:{data}/la.txt:{data}/lb.txt"], "noise=0"),
        (["eval", "cldc", "--model", "{model}", "--train", "la:{data}/la.docs",
          "--test", "lb:{data}/lb.docs"], "epochs=0"),
        (["eval", "cldc", "--model", "{model}", "--train", "la:{data}/la.docs",
          "--test", "lb:{data}/lb.docs"], "top_labels=0"),
        (["query", "--model", "{model}", "--word", "la:la001"], "n=0"),
        (["train", "--pair", "la:lb:{data}/la.txt:{data}/lb.txt"], "margin=inf"),
        (["train", "--pair", "la:lb:{data}/la.txt:{data}/lb.txt"], "step=inf"),
        (["train", "--pair", "la:lb:{data}/la.txt:{data}/lb.txt"], "lambda=inf"),
    ],
    ids=["doc_signal", "dim", "cvm", "level", "metric", "dim_range", "noise_range",
         "epochs_range", "top_labels_range", "n_range", "margin_inf", "step_inf", "lambda_inf"],
)
def test_bad_config_value_names_file_and_key(command, line, fast_corpus, trained, tmp_path,
                                             capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# settings\n{line}\n", encoding="utf-8")
    command = [arg.format(data=fast_corpus, model=trained) for arg in command]
    rc, _, err = run_cli([*command, "--config", cfg, "--out", tmp_path / "x"], capsys)
    assert rc == 1
    assert f"{cfg}:2:" in err and line.split("=")[0] in err
    assert not (tmp_path / "x").exists()


def test_every_subcommand_replays_its_manifest(fast_corpus, trained, tmp_path, capsys):
    la_docs, lb_docs = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    token = resume(trained)[0].vocab("la").tokens[0]
    runs = [
        ["eval", "cldc", "--model", trained, "--train", la_docs, "--test", lb_docs],
        ["eval", "transfer", "--model", trained, "--docs", la_docs, "--docs", lb_docs,
         "--task", "multi", "--top-labels", 2, "--epochs", 3],
        ["query", "--model", trained, "--word", f"la:{token}", "--target", "lb",
         "--metric", "euclidean"],
        ["export", "--model", trained, "--lang", "lb", "--lang", "la"],
    ]
    for i, argv in enumerate(runs):
        first, replay = tmp_path / f"first{i}", tmp_path / f"replay{i}"
        rc, stdout, _ = run_cli([*argv, "--out", first], capsys)
        assert rc == 0
        command = argv[:2] if argv[0] == "eval" else argv[:1]
        rc, replayed, _ = run_cli(
            [*command, "--config", first / "manifest.txt", "--out", replay], capsys
        )
        assert rc == 0
        assert replayed == stdout
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            want, got = (first / name).read_bytes(), (replay / name).read_bytes()
            if name == "manifest.txt":
                want = want.replace(f"out={first}".encode(), f"out={replay}".encode())
            assert got == want, (argv[:2], name)


def test_unknown_config_key_rejected(fast_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # threads was a setting of earlier versions and is gone
    for key in ("dimension", "threads"):
        cfg.write_text(f"{key}=8\n", encoding="utf-8")
        rc, _, err = run_cli(
            ["train", "--config", cfg, "--out", tmp_path / "x"], capsys
        )
        assert rc == 1 and repr(key) in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_is_user_error_and_writes_no_checkpoint(fast_corpus, tmp_path, capsys):
    # an overflowing update, then an update that is finite but makes the next hinges overflow
    for extra, where, step in [
        (["--step", "1e300", "--lambda", "1e300"], "batch 0", "step=1e+300"),
        (["--step", "1e200"], "batch 1", "step=1e+200"),
    ]:
        out = tmp_path / "run"
        rc, _, err = run_cli(train_args(fast_corpus, out, extra=extra), capsys)
        assert rc == 1
        assert f"diverged in epoch 0, {where}" in err and step in err
        assert not out.exists()


def test_out_under_unwritable_parent_is_user_error_before_training(fast_corpus, tmp_path,
                                                                  monkeypatch, capsys):
    """An absent --out that the OS refuses to make in its parent ends before any work.

    Root may write anywhere, so os.mkdir is faked to refuse making a
    directory in one directory.
    """
    locked = tmp_path / "locked"
    locked.mkdir()
    real_mkdir = os.mkdir

    def mkdir(path, *args, **kwargs):
        if os.path.dirname(os.path.abspath(path)) == str(locked):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", mkdir)
    trained = []
    monkeypatch.setattr("jointvec.cli.train_joint", lambda *args: trained.append(args))
    for out in (locked / "run", locked / "a" / "b"):
        rc, stdout, err = run_cli(train_args(fast_corpus, out), capsys)
        assert rc == 1 and f"--out {out} cannot be created: Permission denied" in err
        assert "Traceback" not in err and stdout == ""
        assert not trained and not os.listdir(locked)


@pytest.mark.parametrize("lines", [None, 1, 0], ids=["missing_file", "one_pair", "empty_file"])
def test_failed_train_leaves_no_out_and_rerun_needs_no_force(fast_corpus, tmp_path, lines,
                                                             capsys):
    """A run that fails on its input creates no --out, so fixing the input is enough."""
    sides = [tmp_path / "la.txt", tmp_path / "lb.txt"]
    if lines is not None:
        for side in sides:
            head = (fast_corpus / side.name).read_text(encoding="utf-8").splitlines()[:lines]
            side.write_text("".join(f"{line}\n" for line in head), encoding="utf-8")
    out = tmp_path / "run"
    rc, _, err = run_cli(train_args(tmp_path, out), capsys)
    assert rc == 1 and "la.txt" in err and (lines is None or "fewer than 2" in err)
    assert not out.exists()
    for side in sides:
        shutil.copy(fast_corpus / side.name, side)
    rc, _, err = run_cli(train_args(tmp_path, out), capsys)
    assert rc == 0, err
    assert (out / "manifest.txt").is_file() and (out / "la.npy").is_file()


def test_train_negative_seed_is_user_error_and_writes_nothing(fast_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    for flag, value, text in [
        ("--seed", -1, "seed must be >= 0"),
        ("--dim", 0, "--dim must be >= 1, got 0"),
        ("--noise", 0, "--noise must be >= 1, got 0"),
        ("--margin", "inf", "--margin must be finite and > 0, got inf"),
        ("--step", "inf", "--step must be finite and > 0, got inf"),
        ("--lambda", "inf", "--lambda must be finite and >= 0, got inf"),
        # numpy refuses a (V, d) table this large at once, without touching memory
        ("--dim", 10**11, "--dim must let the tables and their accumulators fit in memory"),
        # past float's range: the default margin, float(d), cannot be formed
        ("--dim", 10**400, "--dim must let the tables and their accumulators fit in memory"),
        # past numpy's largest dimension, and past memory: the first noise draw fails at once
        ("--noise", 10**20, "--noise must let each batch's noise draws fit in memory"),
        ("--noise", 10**15, "--noise must let each batch's noise draws fit in memory"),
    ]:
        args = train_args(fast_corpus, out, (flag, value))  # the last --flag wins
        rc, _, err = run_cli(args, capsys)
        assert rc == 1 and text in err and "Traceback" not in err
        assert not out.exists()


def test_library_warning_is_one_cli_line(fast_corpus, trained, capsys):
    rc, _, err = run_cli(["eval", "cldc", "--model", trained,
                          "--train", f"la:{fast_corpus / 'la.docs'}",
                          "--test", f"lb:{fast_corpus / 'lb.docs'}",
                          "--task", "multi", "--top-labels", 99], capsys)
    assert rc == 0, err
    want = r"jointvec: warning: requested 99 labels but only \d+ distinct labels occur\n"
    assert re.fullmatch(want, err), err


@pytest.mark.parametrize(
    "extra, setting",
    [(["--epochs", 0], "--epochs must be >= 1, got 0"),
     (["--top-labels", 0], "--top-labels must be >= 1, got 0"),
     (["--seed", -1], "--seed must be >= 0, got -1"),
     (["--train", "la"], "--train takes LANG:FILE, got 'la'"),
     (["--docs", "la:{data}/la.docs"], "--docs 'la' is listed more than once")],
    ids=["epochs", "top_labels", "seed", "train_without_colon", "repeated_docs_language"],
)
def test_eval_bad_classifier_setting_is_user_error(fast_corpus, trained, tmp_path, extra,
                                                  setting, capsys):
    """The setting is refused before any file is read, so a missing model goes unnoticed.

    So is a malformed --train or a repeated --docs language, the flag of one subcommand only.
    """
    extra = [str(arg).format(data=fast_corpus) for arg in extra]
    la, lb = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    commands = (
        ["cldc", "--train", la, "--test", lb],
        ["transfer", "--docs", la, "--docs", lb],
    )
    out = tmp_path / "eval"
    for command in commands:
        if extra[0] in ("--train", "--docs") and extra[0] not in command:
            continue
        for model in (trained, tmp_path / "missing"):
            rc, stdout, err = run_cli(
                ["eval", *command, "--model", model, "--task", "multi", "--out", out, *extra],
                capsys,
            )
            assert rc == 1
            assert setting in err and "meta.txt" not in err and "Traceback" not in err
            assert stdout == "" and not out.exists()


@pytest.mark.parametrize("task", ["single", "auto", "multi"])
@pytest.mark.parametrize("subcommand", ["cldc", "transfer"])
def test_eval_top_labels_on_single_label_task_is_user_error(fast_corpus, trained, tmp_path,
                                                            subcommand, task, capsys):
    """--top-labels is refused where the task is or resolves to single-label, kept on multi."""
    la, lb = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    command = {"cldc": ["--train", la, "--test", lb],
               "transfer": ["--docs", la, "--docs", lb]}[subcommand]
    out = tmp_path / "eval"
    rc, stdout, err = run_cli(["eval", subcommand, *command, "--model", trained,
                               "--task", task, "--top-labels", 1, "--out", out], capsys)
    if task == "multi":
        assert rc == 0, err
        assert stdout.startswith("train_lang") and (out / "manifest.txt").exists()
    else:
        assert rc == 1
        assert "--top-labels applies to multi-label tasks only" in err
        assert "Traceback" not in err and stdout == "" and not out.exists()


# what each reader finds in place of its file when the fault is "malformed"
_MALFORMED = {
    "corpus": "one line against forty\n",
    "documents": "d1\tla\thello world\n",
    "config": "no equals sign\n",
    "meta": "no equals sign\n",
    "emb": "1 2 3\n",
    "vocab": "twin\ntwin\n",
}


@pytest.mark.parametrize("fault", ["non-utf8", "directory", "malformed"])
@pytest.mark.parametrize("reader", list(_MALFORMED))
def test_unreadable_input_is_user_error_naming_file(fast_corpus, trained, la_token, tmp_path,
                                                    reader, fault, capsys):
    model = tmp_path / "model"
    shutil.copytree(trained, model)
    out = tmp_path / "out"
    la_txt, la_docs, cfg = tmp_path / "la.txt", tmp_path / "la.docs", tmp_path / "train.cfg"
    query = ["query", "--model", model, "--word", f"la:{la_token}"]
    bad, argv = {
        "corpus": (la_txt, ["train", "--pair", f"la:lb:{la_txt}:{fast_corpus / 'lb.txt'}",
                            "--out", out]),
        "documents": (la_docs, ["eval", "cldc", "--model", model, "--train", f"la:{la_docs}",
                                "--test", f"lb:{fast_corpus / 'lb.docs'}"]),
        "config": (cfg, ["train", "--config", cfg, "--out", out]),
        "meta": (model / "meta.txt", query),
        "emb": (model / "la.npy", query),
        "vocab": (model / "la.vocab", query),
    }[reader]
    bad.unlink(missing_ok=True)
    if fault == "non-utf8":
        bad.write_bytes("café au lait\n".encode("latin-1"))
    elif fault == "directory":
        bad.mkdir()
    else:
        bad.write_text(_MALFORMED[reader], encoding="utf-8")
    rc, _, err = run_cli(argv, capsys)
    assert rc == 1, err
    assert "Traceback" not in err
    assert str(bad) in err
    assert not out.exists()


@given(
    st.lists(
        st.one_of(
            st.text(),
            st.tuples(
                st.sampled_from([f.name for f in _TRAIN] + ["subcommand", "bogus"]), st.text()
            ).map("=".join),
        ),
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_file_loads_or_names_file_and_line(tmp_path, lines):
    cfg = tmp_path / "any.cfg"
    cfg.write_text("\n".join(lines), encoding="utf-8", newline="")
    try:
        load_config_file(cfg, _TRAIN)
    except UserError as exc:
        assert re.match(re.escape(f"{cfg}:") + r"\d+: ", str(exc)), str(exc)


def test_doc_signal_training_and_eval(fast_corpus, tmp_path, capsys):
    out = tmp_path / "docmodel"
    rc, _, _ = run_cli(
        [
            "train",
            "--pair", f"la:lb:{fast_corpus / 'la.docs'}:{fast_corpus / 'lb.docs'}",
            "--doc-signal", "--dim", 8, "--noise", 2, "--batch", 4,
            "--epochs", 1, "--seed", 2, "--out", out,
        ],
        capsys,
    )
    assert rc == 0
    assert "doc_signal=true\n" in (out / "meta.txt").read_text(encoding="utf-8")
    rc, stdout, _ = run_cli(
        [
            "eval", "cldc",
            "--model", out,
            "--train", f"la:{fast_corpus / 'la.docs'}",
            "--test", f"lb:{fast_corpus / 'lb.docs'}",
            "--level", "doc-cvm",
        ],
        capsys,
    )
    assert rc == 0
    assert stdout.splitlines()[1].split("\t")[2] == "accuracy"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag", "1"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_help_marks_default_provenance():
    proc = subprocess.run(
        [sys.executable, "-m", "jointvec.cli", "train", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[reference regime]" in proc.stdout
    assert "[tooling choice]" in proc.stdout


def test_package_root_exports_only_submodules():
    """Each name has one import path: the module that defines it."""
    probe = (
        "import types, jointvec\n"
        "print(sorted(n for n, v in vars(jointvec).items()\n"
        "             if not n.startswith('_') and not isinstance(v, types.ModuleType)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_subprocess_exit_code_propagates(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jointvec.cli", "query",
         "--model", str(tmp_path / "missing"), "--word", "en:x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


@pytest.mark.parametrize("blank", [(2, 2), (1, 3)], ids=["same_line", "different_lines"])
def test_doc_signal_training_skips_blank_document_lines(fast_corpus, tmp_path, blank, capsys):
    """A blank line is a document without sentences; its pair drops, the others train."""
    paths = []
    for lang, line in zip(("la", "lb"), blank):
        docs = (fast_corpus / f"{lang}.docs").read_text(encoding="utf-8").splitlines()
        docs[line] = ""
        paths.append(tmp_path / f"{lang}.docs")
        paths[-1].write_text("".join(f"{d}\n" for d in docs), encoding="utf-8")
    out = tmp_path / "run"
    rc, _, err = run_cli(
        ["train", "--pair", f"la:lb:{paths[0]}:{paths[1]}", "--doc-signal", "--dim", 8,
         "--noise", 2, "--batch", 4, "--epochs", 1, "--seed", 2, "--out", out],
        capsys,
    )
    assert rc == 0, err
    for lang, path in zip(("la", "lb"), paths):
        expected = Vocabulary(t for s in iter_document_token_sentences(path) for t in s)
        assert _vocab_tokens(out / f"{lang}.vocab") == expected.tokens


def test_doc_signal_training_rejects_sentence_misaligned_pair(fast_corpus, tmp_path, capsys):
    """A kept document pair must have as many sentences on each side; the error names the line."""
    paths = []
    for lang in ("la", "lb"):
        paths.append(tmp_path / f"{lang}.docs")
        shutil.copy(fast_corpus / f"{lang}.docs", paths[-1])
    docs = paths[1].read_text(encoding="utf-8").splitlines()
    doc_id, lang, labels, body = docs[2].split("\t")
    blanked = " ||| ".join(["", *body.split(" ||| ")[1:]])  # its first sentence blank
    docs[2] = "\t".join([doc_id, lang, labels, blanked])
    paths[1].write_text("".join(f"{d}\n" for d in docs), encoding="utf-8")
    out = tmp_path / "run"
    rc, stdout, err = run_cli(
        ["train", "--pair", f"la:lb:{paths[0]}:{paths[1]}", "--doc-signal", "--dim", 8,
         "--noise", 2, "--batch", 4, "--epochs", 1, "--seed", 2, "--out", out],
        capsys,
    )
    assert rc == 1 and "Traceback" not in err and stdout == ""
    assert f"{paths[0]}:3" in err and f"{paths[1]}:3" in err
    assert not out.exists()
