"""Doc-drift checks: the committed docs must match the living code."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCS = ROOT / "docs"

HELP_BLOCK = re.compile(
    r"<!-- repro-help:begin -->\n```text\n(.*?)```\n<!-- repro-help:end -->",
    re.DOTALL,
)


class TestReadmeCommandReference:
    def test_help_block_matches_live_parser(self):
        """The embedded `repro --help` text equals the parser's, verbatim."""
        match = HELP_BLOCK.search(README.read_text(encoding="utf-8"))
        assert match, "README.md lost its <!-- repro-help --> markers"
        committed = match.group(1)
        live = cli.render_help()
        assert committed == live, (
            "README command reference has drifted from the parser; "
            "regenerate the block from repro.cli.render_help()"
        )

    def test_every_command_registered_and_documented(self):
        """_COMMANDS, the parser, and the module docstring agree."""
        parser_commands = set()
        for action in cli.build_parser()._subparsers._group_actions:
            parser_commands = set(action.choices)
        assert parser_commands == set(cli._COMMANDS)
        docstring = cli.__doc__
        for name in cli._COMMANDS:
            assert f"``{name}``" in docstring, (
                f"command {name!r} missing from the cli module docstring"
            )


class TestFigureNames:
    def test_every_documented_figure_name_is_a_choice(self):
        """Each `repro figure <name>` in README.md and docs/*.md is accepted.

        Names are lowercase; an upper-case placeholder such as ``NAME`` is
        not a citation.
        """
        pages = [README, *sorted(DOCS.glob("*.md"))]
        cited = {
            (page.name, name)
            for page in pages
            for name in re.findall(
                r"repro figure\s+([a-z0-9_]+)", page.read_text(encoding="utf-8")
            )
        }
        assert cited, "no `repro figure NAME` found in the docs"
        unknown = sorted(pair for pair in cited if pair[1] not in cli.FIGURES)
        assert not unknown, f"docs cite figure names the CLI rejects: {unknown}"


class TestDocsTableOfContents:
    def test_readme_toc_lists_every_docs_page(self):
        readme = README.read_text(encoding="utf-8")
        pages = sorted(p.name for p in DOCS.glob("*.md"))
        assert pages, "docs/ directory is empty?"
        for page in pages:
            assert f"docs/{page}" in readme, (
                f"docs/{page} is not linked from README.md"
            )

    def test_readme_links_no_phantom_docs_pages(self):
        readme = README.read_text(encoding="utf-8")
        for target in set(re.findall(r"docs/([a-z_]+\.md)", readme)):
            assert (DOCS / target).is_file(), (
                f"README.md references docs/{target}, which does not exist"
            )


class TestCrossReferences:
    @pytest.mark.parametrize(
        "page", sorted(p.name for p in DOCS.glob("*.md"))
    )
    def test_docs_page_references_resolve(self, page):
        """Every docs/*.md or sibling-page reference points at a real file."""
        text = (DOCS / page).read_text(encoding="utf-8")
        for target in set(re.findall(r"docs/([a-z_]+\.md)", text)):
            assert (DOCS / target).is_file(), (
                f"docs/{page} references docs/{target}, which does not exist"
            )
        for target in set(re.findall(r"\]\(([a-z_]+\.md)\)", text)):
            assert (DOCS / target).is_file(), (
                f"docs/{page} links ({target}), which does not exist"
            )

    def test_docs_referenced_tests_exist(self):
        """Test files cited as evidence in docs must still exist."""
        for page in DOCS.glob("*.md"):
            text = page.read_text(encoding="utf-8")
            for target in set(re.findall(r"tests/(test_[a-z_]+\.py)", text)):
                assert (ROOT / "tests" / target).is_file(), (
                    f"{page.name} cites tests/{target}, which does not exist"
                )
