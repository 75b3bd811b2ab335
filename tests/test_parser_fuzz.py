"""Seeded fuzzing of the edge-list readers and the CLI on mutated inputs.

Each case mutates a valid edge list: tokens are dropped, duplicated or
swapped, ids go out of range or stop being integers, loops and duplicate
edges appear among the counted edge lines, and the edge list is cut short.
Every mutant must either parse or raise ``GraphFormatError`` naming a line;
the CLI must then exit 2 with an ``error: line N`` message, never a
traceback.
"""

import io
import random
import re

import pytest

from rigidpack.cli import main
from rigidpack.generators import complete_graph, cycle_graph, harary_graph
from rigidpack.graph import GraphFormatError, read_digraph, read_graph, write_graph

BASES = [
    write_graph(complete_graph(5)),
    write_graph(cycle_graph(6)),
    write_graph(harary_graph(3, 8)),
]
BAD_TOKENS = ["-1", "x", "1.5", "", "0x2", "7e1"]
LINE = re.compile(r"^line \d+: ")


def mutate(text: str, rng: random.Random) -> str:
    """One to three random mutations of an edge list (header kept first)."""
    lines = [line.split() for line in text.splitlines()]
    n = int(lines[0][0])
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(8)
        row = rng.randrange(len(lines))
        tokens = lines[row]
        if kind == 0 and tokens:                       # drop a token
            del tokens[rng.randrange(len(tokens))]
        elif kind == 1 and tokens:                     # duplicate a token
            i = rng.randrange(len(tokens))
            tokens.insert(i, tokens[i])
        elif kind == 2:                                # swap two tokens anywhere
            flat = [(r, i) for r, ts in enumerate(lines) for i in range(len(ts))]
            (r1, i1), (r2, i2) = rng.choice(flat), rng.choice(flat)
            lines[r1][i1], lines[r2][i2] = lines[r2][i2], lines[r1][i1]
        elif kind == 3 and row and tokens:             # out-of-range id
            tokens[rng.randrange(len(tokens))] = str(rng.choice([n, n + 5, -1]))
        elif kind == 4 and row and tokens:             # non-integer id
            tokens[rng.randrange(len(tokens))] = rng.choice(BAD_TOKENS)
        elif kind == 5 and row:                        # loop
            v = str(rng.randrange(n))
            lines[row] = [v, v]
        elif kind == 6 and row and len(lines) > 2:     # duplicate edge, maybe reversed
            other = list(rng.choice(lines[1:]))
            lines[row] = other[::-1] if rng.random() < 0.5 else other
        elif kind == 7 and len(lines) > 1:             # truncate the edge list
            del lines[rng.randrange(1, len(lines)):]
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


def outcome(reader, text):
    """None when the text parses, else the GraphFormatError message."""
    try:
        reader(text)
    except GraphFormatError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(4))
def test_mutated_edge_lists_parse_or_name_a_line(seed, capsys, monkeypatch):
    rng = random.Random(seed)
    seen_errors = seen_valid = 0
    for _ in range(60):
        text = mutate(rng.choice(BASES), rng)
        for reader, argvs in (
            (read_graph, (["verify", "--k", "2"], ["rank", "--d", "2"])),
            (read_digraph, (["verify", "--k", "2", "--digraph"],)),
        ):
            message = outcome(reader, text)
            if message is not None:
                assert LINE.match(message), (text, message)
            for argv in argvs:
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code = main(argv)
                captured = capsys.readouterr()
                assert "Traceback" not in captured.out + captured.err
                if message is None:
                    assert code in (0, 1) and captured.err == "", (text, argv)
                    seen_valid += 1
                else:
                    assert code == 2 and captured.out == "", (text, argv)
                    assert captured.err == f"error: {message}\n"
                    seen_errors += 1
    # the mutations reach both branches
    assert seen_errors and seen_valid
