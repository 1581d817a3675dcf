"""Negative corpus: the deployed operation table.  It grows in
``deploy``, which no dispatch entry reaches; the request path only
reads it."""


class ServiceContainer:
    def __init__(self):
        self._operation_metrics = {}

    def deploy(self, service):
        for operation in service.operations:
            self._operation_metrics[f"{{{service.namespace}}}{operation}"] = object()

    def execute(self, entry):
        return self._operation_metrics.get(entry.tag)
