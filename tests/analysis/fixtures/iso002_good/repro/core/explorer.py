"""Clone plumbing that looks one router up by name."""


def probe(clone, node):
    return clone.processes[node], node in clone.processes
