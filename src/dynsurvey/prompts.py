"""Prompt templates for all agent roles.

Templates are text assets with ``{placeholder}`` substitution.
Literal braces inside template text are doubled for ``str.format``.
"""

from __future__ import annotations

OUTLINE = """You are assisting in updating and maintaining a technical survey
on {survey_title}.

I want the survey outline to include ONLY the following sections
and tables:
Sections: {section_ids}
Tables: {table_ids}

Your task is to extract a structured outline from the existing
survey text while preserving the original section titles and
content scope.

Constraints:
Do not introduce new sections or tables.
Do not rename or merge sections.
Do not add content that is not explicitly present in the survey.

Return the output strictly in valid JSON format.

OUTPUT FORMAT:
{{"sections": [{{"id": ..., "section_title": ..., "page_numbers": ...,
"table_relevant": [...], "summary": ...}}],
 "tables": [{{"id": ..., "title": ..., "page_numbers": ..., "summary": ...}}]}}

SURVEY TEXT:
{survey_text}"""

ANALYSIS = """Analyze the following research paper text.
Extract and summarize the following aspects:

- Methods
- Novelty
- Results

Organize the output under the headings "### Methods", "### Novelty"
and "### Results".

PAPER TEXT:
{paper_text}"""

ABSTENTION = """You are a Research Editor deciding if a paper belongs in
a specific survey.

TARGET SURVEY SCOPE:
Title: {title}
Keywords: {keywords}
Abstract: {abstract}
Core Criteria: {core_criterion}

CANDIDATE PAPER SUMMARY:
{paper_summary}

DECISION RULES:
Answer TRUE if the paper is related to the survey core topic.
Answer TRUE if it addresses methods techniques or applications
covered by the survey.
Answer FALSE only if the paper is clearly about a different
domain with no connection.

Does this paper belong in the survey
Answer TRUE or FALSE"""

SECTION_ROUTING = """You are an expert at categorizing {survey_topic}
research papers for a survey.

AVAILABLE SURVEY SECTIONS:
{section_list}

PAPER SUMMARY:
{paper_summary}

TASK:
Determine which 3 survey sections this paper belongs to (ranked by relevance).

INSTRUCTIONS:
Identify the paper's primary contribution.
Determine whether it proposes a framework, backbone,
auxiliary technique, dataset, or evaluation method.
Return exactly 3 section IDs as a JSON array.

OUTPUT:
[section_id_1, section_id_2, section_id_3]"""

INSERTION_POINT = """You are an expert at categorizing {survey_topic}
research papers for a survey.

Survey Section:
{section_text}

PAPER SUMMARY:
{paper_summary}

Given the survey section text, select the most appropriate existing sentence as the
insertion point for this paper. The choice should be based on alignment between the
paper's primary contribution and the thematic focus of the section.

Each sentence above is prefixed with its identifier. Respond with the identifier
of the chosen sentence, or with the word append to place the paragraph at the end
of the section."""

TABLE_ROUTING = """You are evaluating whether a research paper should be
included in the {table_title} table of a {survey_topic} survey.

TABLE DESCRIPTION:
{table_description}

PAPER SUMMARY:
{paper_summary}

QUESTION:
Does this paper belong in the {table_title} table?

OUTPUT:
Answer only "yes" or "no"."""

TEXT_SYNTHESIS = """You are extending a survey paper. Your task is to write a
single paragraph about a new paper that seamlessly
continues the existing survey section.

EXISTING SURVEY SECTION:
{survey_text}

NEW PAPER INFORMATION:
{new_paper_summary}

INSTRUCTIONS:
Write exactly ONE paragraph that continues naturally from
the survey section above.
Match the EXACT writing style tone and technical depth of
the existing survey.
Start with the method or paper name followed by a colon.
Use the same citation placeholder format [cite].
Do NOT include headers labels or meta-text.
Do NOT write multiple paragraphs.

CONTINUATION PARAGRAPH:"""

TABLE_SYNTHESIS = """Extract the paper's attributes as JSON with these fields:
{field_specs}

CRITICAL: Output ONLY the JSON object. Do NOT include
reasoning, explanations, or <think> tags.
Your response must start with {{ and end with }}.

PAPER SUMMARY:
{paper_summary}"""

ONE_STEP_UPDATE = """You maintain a technical survey. Update the survey document
below so it incorporates the new paper. Return the complete updated survey
document as a JSON object in exactly the same format as the input.

SURVEY DOCUMENT:
{document}

NEW PAPER:
Title: {paper_title}
Abstract: {paper_abstract}

UPDATED SURVEY DOCUMENT:"""

ORACLE_UPDATE = """You maintain a technical survey. Update the survey document
below so it incorporates the new paper. Integrate the paper into the target
section named below and leave the rest of the survey unchanged. Return the
complete updated survey document as a JSON object in exactly the same format
as the input.

TARGET SECTION: {target_section}

SURVEY DOCUMENT:
{document}

NEW PAPER:
Title: {paper_title}
Abstract: {paper_abstract}

UPDATED SURVEY DOCUMENT:"""


def render(template: str, **values: str) -> str:
    return template.format(**values)
