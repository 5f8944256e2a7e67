import shutil
import subprocess
import sys

import pytest

from jointvec import synth
from jointvec.cli import main
from jointvec.training import resume


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
    for name in ("manifest.txt", "meta.txt", "loss_log.tsv",
                 "la.emb", "lb.emb", "la.adagrad", "lb.adagrad"):
        assert (out / name).is_file()
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


def test_train_rejects_bad_margin(fast_corpus, tmp_path, capsys):
    rc, _, err = run_cli(
        train_args(fast_corpus, tmp_path / "x", extra=["--margin", 0]), capsys
    )
    assert rc == 1
    assert "error" in err


def test_train_refuses_nonempty_out_without_force(fast_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "stale.txt").write_text("old", encoding="utf-8")
    rc, _, err = run_cli(train_args(fast_corpus, out), capsys)
    assert rc == 1 and "--force" in err
    rc, _, _ = run_cli(train_args(fast_corpus, out, extra=["--force"]), capsys)
    assert rc == 0


def test_train_single_mode_takes_one_pair(fast_corpus, tmp_path, capsys):
    args = train_args(fast_corpus, tmp_path / "x")
    args += ["--pair", f"la:lb:{fast_corpus / 'la.txt'}:{fast_corpus / 'lb.txt'}"]
    rc, _, err = run_cli(args, capsys)
    assert rc == 1 and "single" in err


def test_train_joint_mode_single_pair_matches_single(fast_corpus, trained, tmp_path, capsys):
    out = tmp_path / "joint"
    rc, _, _ = run_cli(train_args(fast_corpus, out, extra=["--mode", "joint"]), capsys)
    assert rc == 0
    for name in ("la.emb", "lb.emb"):
        assert (out / name).read_bytes() == (trained / name).read_bytes()


def test_train_bad_pair_spec(fast_corpus, tmp_path, capsys):
    rc, _, err = run_cli(
        ["train", "--pair", "la:lb:only_one_file", "--out", tmp_path / "x"], capsys
    )
    assert rc == 1 and "--pair" in err


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
            "--langs", "la,lb",
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


def test_eval_transfer_requires_docs_per_lang(fast_corpus, trained, capsys):
    rc, _, err = run_cli(
        [
            "eval", "transfer",
            "--model", trained,
            "--langs", "la,lb",
            "--docs", f"la:{fast_corpus / 'la.docs'}",
        ],
        capsys,
    )
    assert rc == 1 and "lb" in err


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
    lines = (model / "la.emb").read_text(encoding="utf-8").splitlines()
    word, *values = lines[2].split(" ")
    lines[2] = " ".join([word, "nan", *values[1:]])
    (model / "la.emb").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, _, err = run_cli(["query", "--model", model, "--word", f"la:{la_token}"], capsys)
    assert rc == 1
    assert f"{model / 'la.emb'}: row 2" in err


def test_query_unknown_word_fails(trained, la_token, capsys):
    rc, _, err = run_cli(
        ["query", "--model", trained, "--word", "la:nonexistent"], capsys
    )
    assert rc == 1 and "error" in err
    rc, _, _ = run_cli(
        ["query", "--model", trained, "--word", f"la:{la_token}", "--n", 0], capsys
    )
    assert rc == 1


def test_export_all_and_selected(trained, tmp_path, capsys):
    out = tmp_path / "exp"
    rc, _, _ = run_cli(["export", "--model", trained, "--out", out], capsys)
    assert rc == 0
    assert (out / "la.emb").read_bytes() == (trained / "la.emb").read_bytes()
    assert (out / "lb.emb").read_bytes() == (trained / "lb.emb").read_bytes()

    only = tmp_path / "only"
    rc, _, _ = run_cli(
        ["export", "--model", trained, "--lang", "la", "--out", only], capsys
    )
    assert rc == 0
    assert (only / "la.emb").is_file()
    assert not (only / "lb.emb").exists()

    rc, _, err = run_cli(["export", "--model", trained, "--out", out], capsys)
    assert rc == 1 and "--force" in err
    rc, _, _ = run_cli(["export", "--model", trained, "--out", out, "--force"], capsys)
    assert rc == 0
    rc, _, _ = run_cli(
        ["export", "--model", trained, "--lang", "zz", "--out", tmp_path / "zz"], capsys
    )
    assert rc == 1


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
    for name in ("la.emb", "lb.emb", "la.adagrad", "lb.adagrad"):
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
        (["train"], "force=maybe"),
        (["train"], "dim=abc"),
        (["train"], "cvm=tri"),
        (["eval", "cldc"], "level=bogus"),
        (["query"], "metric=bogus"),
    ],
    ids=["force", "dim", "cvm", "level", "metric"],
)
def test_bad_config_value_names_file_and_key(command, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# settings\n{line}\n", encoding="utf-8")
    rc, _, err = run_cli([*command, "--config", cfg, "--out", tmp_path / "x"], capsys)
    assert rc == 1
    assert f"{cfg}:2:" in err and line.split("=")[0] in err
    assert not (tmp_path / "x").exists()


def test_every_subcommand_replays_its_manifest(fast_corpus, trained, tmp_path, capsys):
    la_docs, lb_docs = f"la:{fast_corpus / 'la.docs'}", f"lb:{fast_corpus / 'lb.docs'}"
    token = resume(trained)[0].vocab("la").tokens[0]
    runs = [
        ["eval", "cldc", "--model", trained, "--train", la_docs, "--test", lb_docs],
        ["eval", "transfer", "--model", trained, "--langs", "la,lb", "--docs", la_docs,
         "--docs", lb_docs, "--task", "multi", "--top-labels", 2, "--epochs", 3],
        ["query", "--model", trained, "--word", f"la:{token}", "--target", "lb",
         "--metric", "euclidean"],
        ["export", "--model", trained, "--lang", "lb", "--lang", "la", "--force"],
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
    out = tmp_path / "run"
    extra = ["--step", "1e300", "--lambda", "1e300"]
    rc, _, err = run_cli(train_args(fast_corpus, out, extra=extra), capsys)
    assert rc == 1
    assert "diverged in epoch 0, batch 0" in err and "step=1e+300" in err
    assert not list(out.glob("*.emb"))


def test_train_negative_seed_is_user_error_and_writes_nothing(fast_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    args = train_args(fast_corpus, out)
    args[args.index("--seed") + 1] = -1
    rc, _, err = run_cli(args, capsys)
    assert rc == 1 and "seed must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, setting",
    [(["--epochs", 0], "epochs"), (["--top-labels", 0], "top_labels"), (["--seed", -1], "seed")],
    ids=["epochs", "top_labels", "seed"],
)
def test_eval_bad_classifier_setting_is_user_error(fast_corpus, trained, tmp_path, extra,
                                                  setting, capsys):
    out = tmp_path / "eval"
    rc, stdout, err = run_cli(
        [
            "eval", "cldc", "--model", trained,
            "--train", f"la:{fast_corpus / 'la.docs'}",
            "--test", f"lb:{fast_corpus / 'lb.docs'}",
            "--task", "multi", "--out", out, *extra,
        ],
        capsys,
    )
    assert rc == 1
    assert setting in err and "Traceback" not in err
    assert stdout == "" and not out.exists()


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


def test_subprocess_exit_code_propagates(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jointvec.cli", "query",
         "--model", str(tmp_path / "missing"), "--word", "en:x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
