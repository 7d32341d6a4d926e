"""A property that reads every router of a clone."""


class EveryRouter:
    def prepare(self, context):
        for name, process in context.clone.processes.items():
            context.baseline[name] = process.crash_count

    def check(self, context):
        names = sorted(context.clone.processes)
        total = sum(p.crash_count for p in context.clone.processes.values())
        return [name for name in context.clone.processes.keys()], names, total


def oracle(network):
    """Not a property method: a global-visibility oracle may iterate."""
    return [process for process in network.processes.values()]
