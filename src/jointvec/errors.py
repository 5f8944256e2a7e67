"""The toolkit's two exception types, one per exit code of the CLI."""


class UserError(Exception):
    """A failure caused by the user's files or settings (the CLI exits 1).

    A value outside its setting's range also names the setting, as the
    library calls it, and the rule it broke, so the CLI can name the flag
    or config-file line that gave the value instead.
    """

    def __init__(self, message: str, setting: str | None = None, rule: str = ""):
        super().__init__(message)
        self.setting, self.rule = setting, rule


class ContractError(Exception):
    """An internal precondition was violated, e.g. a shape mismatch (the CLI exits 2)."""
