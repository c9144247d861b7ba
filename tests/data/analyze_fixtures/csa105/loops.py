"""CSA105 loop shapes: a ``for`` over a call-returned set whose order
outlives the call is flagged, in private functions too; a loop whose
order stays inside the function, or is sorted away first, is not.

Each positive's loop is the first statement after its ``out = []`` or
its ``def`` line.
"""

from producer import candidates


class Store:
    def __init__(self):
        self.log = []
        self.rows = {}

    def _collect(self):
        out = []
        for item in candidates():
            out.append(item)
        return tuple(out)

    def keep(self):
        out = []
        for item in candidates():
            out.append(item)
        self.rows["kept"] = out

    def record(self):
        for item in candidates():
            self.log.append(item)

    def mark(self, sink):
        for item in candidates():
            sink.mark(item)

    def store(self):
        for item in candidates():
            self.rows[item] = True

    def drop(self):
        for item in candidates():
            del self.rows[item]

    def sorted_in_place(self):
        out = []
        for item in candidates():
            out.append(item)
        out.sort()
        return out

    def rebound(self):
        out = []
        for item in candidates():
            out.append(item)
        out = sorted(out)
        return out

    def counted(self):
        out = []
        for item in candidates():
            out.append(item)
        return len(out), sorted(out)

    def local_only(self):
        total = 0
        seen = set()
        for item in candidates():
            total += len(item)
            seen.add(item)
        return total, seen

    def ordered(self):
        for item in sorted(candidates()):
            self.log.append(item)


def fill(sink):
    out = []
    for item in candidates():
        out.append(item)
    sink.extend(sorted(out))
