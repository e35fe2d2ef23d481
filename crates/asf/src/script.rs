//! The script-command object.
//!
//! "Script commands instruct Microsoft Windows Media Player to perform
//! additional tasks … along with rendering the ASF stream" (§2.1). The
//! publisher uses them to flip slides ("the video and presented slides
//! synchronized with the temporal script commands", Fig. 5); annotations
//! ride the same mechanism.

use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{string_len, Reader, Writer};

/// One timed command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptCommand {
    /// Presentation time at which the command fires, in ticks.
    pub time: u64,
    /// Command type, e.g. `"slide"`, `"annotation"`, `"url"`, `"caption"`.
    pub kind: String,
    /// Command parameter, e.g. the slide URI to display.
    pub param: String,
}

impl ScriptCommand {
    /// Creates a command.
    pub fn new(time: u64, kind: impl Into<String>, param: impl Into<String>) -> Self {
        Self {
            time,
            kind: kind.into(),
            param: param.into(),
        }
    }

    /// Serializes the command as the payload of an in-band script-stream
    /// sample ([`crate::StreamKind::Script`]), which is how live ASF
    /// streams carried commands that post-dated the header.
    pub fn to_sample_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.time);
        w.string(&self.kind);
        w.string(&self.param);
        w.into_vec()
    }

    /// Parses an in-band script-stream sample payload.
    ///
    /// # Errors
    ///
    /// [`crate::AsfError::UnexpectedEof`] on truncation,
    /// [`crate::AsfError::BadString`] on invalid UTF-8.
    pub fn from_sample_bytes(bytes: &[u8]) -> Result<Self, AsfError> {
        let mut r = Reader::new(bytes);
        let time = r.u64("script sample time")?;
        let kind = r.string("script sample kind")?;
        let param = r.string("script sample param")?;
        Ok(Self { time, kind, param })
    }
}

/// The ordered list of script commands in a presentation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScriptCommandList {
    commands: Vec<ScriptCommand>,
}

impl ScriptCommandList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a command, keeping the list sorted by time (stable for ties).
    pub fn push(&mut self, cmd: ScriptCommand) {
        let at = self.commands.partition_point(|c| c.time <= cmd.time);
        self.commands.insert(at, cmd);
    }

    /// The commands in time order.
    pub fn commands(&self) -> &[ScriptCommand] {
        &self.commands
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Commands with `from < time ≤ to` — what fires when the player's
    /// clock moves from `from` to `to`.
    pub fn fired_between(&self, from: u64, to: u64) -> &[ScriptCommand] {
        let lo = self.commands.partition_point(|c| c.time <= from);
        let hi = self.commands.partition_point(|c| c.time <= to);
        &self.commands[lo..hi]
    }

    /// The last command of `kind` at or before `time` (e.g. "which slide
    /// should be visible right now").
    pub fn current_of_kind(&self, kind: &str, time: u64) -> Option<&ScriptCommand> {
        let upto = self.commands.partition_point(|c| c.time <= time);
        self.commands[..upto].iter().rev().find(|c| c.kind == kind)
    }

    pub(crate) fn wire_len(&self) -> Result<usize, AsfError> {
        let mut len = 4;
        for c in &self.commands {
            len += 8
                + string_len(&c.kind, "script command kind")?
                + string_len(&c.param, "script command param")?;
        }
        Ok(len)
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.commands.len() as u32);
        for c in &self.commands {
            w.u64(c.time);
            w.string(&c.kind);
            w.string(&c.param);
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, AsfError> {
        let n = r.u32("script command count")?;
        let mut list = Self::new();
        for _ in 0..n {
            let time = r.u64("script command time")?;
            let kind = r.string("script command kind")?;
            let param = r.string("script command param")?;
            list.push(ScriptCommand { time, kind, param });
        }
        Ok(list)
    }
}

impl FromIterator<ScriptCommand> for ScriptCommandList {
    fn from_iter<I: IntoIterator<Item = ScriptCommand>>(iter: I) -> Self {
        let mut l = Self::new();
        for c in iter {
            l.push(c);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> ScriptCommandList {
        [
            ScriptCommand::new(300, "slide", "s3.png"),
            ScriptCommand::new(100, "slide", "s1.png"),
            ScriptCommand::new(200, "slide", "s2.png"),
            ScriptCommand::new(200, "annotation", "circle eq. 4"),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn kept_sorted() {
        let l = list();
        let times: Vec<u64> = l.commands().iter().map(|c| c.time).collect();
        assert_eq!(times, [100, 200, 200, 300]);
    }

    #[test]
    fn fired_between_window() {
        let l = list();
        assert_eq!(l.fired_between(0, 100).len(), 1);
        assert_eq!(l.fired_between(100, 250).len(), 2);
        assert!(l.fired_between(300, 999).is_empty());
    }

    #[test]
    fn current_slide_query() {
        let l = list();
        assert_eq!(l.current_of_kind("slide", 250).unwrap().param, "s2.png");
        assert_eq!(l.current_of_kind("slide", 99), None);
        assert_eq!(l.current_of_kind("slide", 1000).unwrap().param, "s3.png");
    }

    #[test]
    fn wire_round_trip() {
        let l = list();
        let mut w = Writer::new();
        l.write(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(ScriptCommandList::read(&mut r).unwrap(), l);
        assert!(r.is_empty());
    }

    #[test]
    fn in_band_sample_round_trip() {
        let c = ScriptCommand::new(12_345, "slide", "decks/s7.png");
        let bytes = c.to_sample_bytes();
        assert_eq!(ScriptCommand::from_sample_bytes(&bytes).unwrap(), c);
        // Truncation fails cleanly at every cut.
        for cut in 0..bytes.len() {
            assert!(ScriptCommand::from_sample_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn stable_order_for_equal_times() {
        let l = list();
        let at_200: Vec<&str> = l
            .fired_between(100, 200)
            .iter()
            .map(|c| c.kind.as_str())
            .collect();
        assert_eq!(at_200, ["slide", "annotation"]);
    }
}
