"""Positive fixture: stages built with no backlog bound."""


def build(Stage, server, handler):
    stage = Stage("parse", handler, workers=2)
    app_stage = server.Stage("app", 4)
    return stage, app_stage
