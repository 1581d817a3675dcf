"""Positive corpus: the client keeps every fault string a server sends
back, so a server decides how much the client holds."""


class ServiceProxy:
    def __init__(self, channel):
        self._channel = channel
        self._faults_seen = set()

    def exchange(self, calls):
        response = self._channel.send(calls)
        self._note(response)
        return response

    def _note(self, response):
        for fault in response.faults:
            self._faults_seen.add(fault.faultstring)
