"""Clone plumbing that builds every router of its clone."""


def probe(clone):
    return [*clone.processes]


def waived(clone):
    return list(clone.processes)  # repro: allow[ISO002] fixture: a reasoned waiver
