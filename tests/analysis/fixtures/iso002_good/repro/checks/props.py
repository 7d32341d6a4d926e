"""A property that reads only the routers a run built."""


class BuiltRouters:
    def prepare(self, context):
        for name, process in context.clone.materialized().items():
            self.prepare_router(context, name, process)

    def prepare_router(self, context, name, process):
        context.baseline[name] = process.crash_count

    def check(self, context):
        router = context.clone.processes[context.node]
        count = len(context.clone.processes)
        return [
            name for name, process in sorted(context.clone.materialized().items())
            if process.crash_count > context.baseline.get(name, 0)
        ], router, count
