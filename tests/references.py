"""Independent reference generators that several test modules draw from."""

from typing import Iterator


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``.

    Recursive, in descending lex order (leftmost slot most significant), and
    empty for a negative total.
    """
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
