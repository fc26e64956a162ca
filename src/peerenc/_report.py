"""The JSON form every report shares."""

import json


class JsonReport:
    """Serializes a report's ``to_dict`` as sorted-key JSON, indented by one."""

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)
