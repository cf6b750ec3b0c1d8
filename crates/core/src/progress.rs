//! Campaign progress monitoring and control.
//!
//! The paper's Fig. 7 progress window shows the number of experiments
//! conducted and lets the user "pause, restart or end the campaign". This
//! module is that surface without the window: the runner holds a
//! [`Controller`] that emits [`ServiceEvent`]s and obeys [`Command`]s.
//! A campaign service's controller hands each event straight to its job
//! registry; [`control_channel`] pairs one with a [`ControlHandle`] that
//! receives the events itself.

use crate::error::{GoofiError, Result};
use crate::service::ServiceEvent;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

/// Operator commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Pause at the next experiment boundary.
    Pause,
    /// Resume a paused campaign.
    Resume,
    /// End the campaign at the next experiment boundary.
    Stop,
}

/// The runner-side endpoint.
pub struct Controller {
    commands: Receiver<Command>,
    emitter: Box<dyn Fn(ServiceEvent) + Send + Sync>,
}

/// The operator-side endpoint of a [`control_channel`] (what a GUI or
/// CLI holds).
#[derive(Debug)]
pub struct ControlHandle {
    commands: Sender<Command>,
    events: Receiver<ServiceEvent>,
}

/// Creates a connected controller/handle pair: the handle sends the
/// commands and receives the events.
pub fn control_channel() -> (Controller, ControlHandle) {
    let (events_tx, events) = unbounded();
    let (controller, commands) = Controller::new(move |ev| {
        // Dropped if the handle is gone: a campaign must not die because
        // its progress window closed.
        let _ = events_tx.send(ev);
    });
    (controller, ControlHandle { commands, events })
}

impl Controller {
    /// A controller that calls `emitter` with every event, on the thread
    /// that emits it, and obeys the commands sent on the returned sender.
    pub(crate) fn new(
        emitter: impl Fn(ServiceEvent) + Send + Sync + 'static,
    ) -> (Controller, Sender<Command>) {
        let (commands_tx, commands) = unbounded();
        let controller = Controller {
            commands,
            emitter: Box::new(emitter),
        };
        (controller, commands_tx)
    }

    /// Emits a progress event.
    pub fn emit(&self, event: ServiceEvent) {
        (self.emitter)(event);
    }

    /// The raw command receiver, for runners that multiplex commands with
    /// other channels (the parallel runner's writer thread `select!`s over
    /// commands and finished experiments).
    pub(crate) fn command_receiver(&self) -> &Receiver<Command> {
        &self.commands
    }

    /// Experiment-boundary checkpoint: applies pending commands. Blocks
    /// while paused.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Stopped`] if the operator ended the campaign.
    pub fn checkpoint(&self) -> Result<()> {
        let mut paused = false;
        loop {
            let cmd = if paused {
                // Blocking: nothing to do until the operator acts.
                // Handle dropped while paused: resume.
                self.commands.recv().ok()
            } else {
                match self.commands.try_recv() {
                    Ok(cmd) => Some(cmd),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
                }
            };
            match cmd {
                Some(Command::Stop) => return Err(GoofiError::Stopped),
                Some(Command::Pause) => {
                    if !paused {
                        paused = true;
                        self.emit(ServiceEvent::Paused);
                    }
                }
                Some(Command::Resume) => {
                    if paused {
                        paused = false;
                        self.emit(ServiceEvent::Resumed);
                    }
                }
                // No pending command while running, or the operator handle
                // vanished while paused: carry on with the campaign.
                None => return Ok(()),
            }
        }
    }
}

impl ControlHandle {
    /// Sends a command; `false` if the campaign already finished.
    pub fn send(&self, cmd: Command) -> bool {
        self.commands.send(cmd).is_ok()
    }

    /// Non-blocking poll for the next progress event.
    pub fn try_next(&self) -> Option<ServiceEvent> {
        self.events.try_recv().ok()
    }

    /// Blocking wait for the next progress event; `None` once the campaign
    /// is gone.
    pub fn next(&self) -> Option<ServiceEvent> {
        self.events.recv().ok()
    }

    /// Drains all pending events.
    pub fn drain(&self) -> Vec<ServiceEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_next() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn checkpoint_passes_when_idle() {
        let (ctl, _handle) = control_channel();
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn stop_ends_campaign() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        assert!(matches!(ctl.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn pause_blocks_until_resume() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        let worker = thread::spawn(move || {
            ctl.checkpoint().unwrap();
            ctl.emit(ServiceEvent::Finished {
                completed: 1,
                stopped: false,
            });
        });
        // Paused event appears; the worker must be blocked now.
        assert_eq!(handle.next(), Some(ServiceEvent::Paused));
        thread::sleep(Duration::from_millis(20));
        assert!(handle.try_next().is_none(), "worker is paused");
        handle.send(Command::Resume);
        assert_eq!(handle.next(), Some(ServiceEvent::Resumed));
        assert_eq!(
            handle.next(),
            Some(ServiceEvent::Finished {
                completed: 1,
                stopped: false
            })
        );
        worker.join().unwrap();
    }

    #[test]
    fn stop_while_paused_ends_campaign() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        handle.send(Command::Stop);
        assert!(matches!(ctl.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn handle_dropped_while_paused_resumes() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        drop(handle);
        // Must not spin or deadlock: a vanished operator implies resume.
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn emit_survives_dropped_handle() {
        let (ctl, handle) = control_channel();
        drop(handle);
        ctl.emit(ServiceEvent::Paused); // no panic
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn drain_collects_everything() {
        let (ctl, handle) = control_channel();
        ctl.emit(ServiceEvent::Started {
            campaign: "c".into(),
            total: 2,
        });
        ctl.emit(ServiceEvent::Progress {
            completed: 1,
            total: 2,
            pruned: false,
        });
        assert_eq!(handle.drain().len(), 2);
        assert!(handle.drain().is_empty());
    }
}
