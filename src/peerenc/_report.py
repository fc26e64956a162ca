"""The JSON form every report shares."""

import json
from pathlib import Path


class JsonReport:
    """Serializes a report's ``to_dict`` as sorted-key JSON, indented by one."""

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")
