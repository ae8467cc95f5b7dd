"""Re-record `tests/cli_digests.json`, the behaviour gate of the CLI.

For every argv in `test_acceptance.CLI_CORPUS` and `test_cli.CORPUS`, run as
the tests run it, the file holds the exit code and the sha256 of the
`--no-timing` stdout.  `test_criterion_10_cli` and
`test_subcommands_succeed_and_are_deterministic` compare against it.

Usage, from the repository root:

    PYTHONPATH=src python tests/record_cli_digests.py

Re-record only on a commit whose reports are meant to change, and say in the
change log which reports changed and why; a refactor must leave the file as
it is.
"""

import contextlib
import io
import json

from conftest import CLI_DIGESTS, FIXTURES, cli_digest, cli_digest_key
from latfuzz import cli
from test_acceptance import CLI_CORPUS
from test_cli import corpus_argvs as cli_corpus_argvs


def corpus_argvs():
    w3_doc = str(FIXTURES / "w3.json")
    for argv in CLI_CORPUS:
        yield [*argv, "--doc", w3_doc, "--no-timing"]
    for argv in cli_corpus_argvs():
        yield [*argv, "--no-timing"]


def main() -> None:
    digests = {}
    for argv in corpus_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        digests[cli_digest_key(argv)] = cli_digest(out.getvalue().encode(),
                                                   code)
    CLI_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"recorded {len(digests)} commands in {CLI_DIGESTS}")


if __name__ == "__main__":
    main()
